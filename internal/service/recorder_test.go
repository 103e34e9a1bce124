package service

// Flight-recorder contract tests: the zero-overhead byte-identical
// mode, the slow-request timeline via /debug/requests/{id}, the
// follower→leader trace linkage, the /debug endpoints through the
// strict double-WriteHeader server, the NDJSON request log, session
// lifecycle events and the SLO accounting.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/obs"
	"treesched/internal/online"
)

// TestTraceSampleZeroByteIdentical: with the recorder enabled and span
// sampling off (the serving default), every response body is
// byte-identical to a DisableRecorder engine's.
func TestTraceSampleZeroByteIdentical(t *testing.T) {
	oracle := New(Config{Workers: 2, DisableRecorder: true})
	defer oracle.Close()
	recorded := New(Config{Workers: 2}) // recorder on, TraceSample 0
	defer recorded.Close()
	if recorded.Recorder() == nil || oracle.Recorder() != nil {
		t.Fatal("engine recorder wiring inverted")
	}

	srvA := httptest.NewServer(oracle.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(recorded.Handler())
	defer srvB.Close()

	bodies := []struct {
		path, body string
	}{
		{"/solve", `{"algo":"tree-unit","scenario":"caterpillar-backbone","scenario_seed":3}`},
		{"/solve", `{"algo":"tree-unit","scenario":"caterpillar-backbone","scenario_seed":3}`}, // cache hit path
		{"/solve", `{"algo":"dist-unit","scenario":"profit-ladder","scenario_seed":1}`},
		{"/solve", `{"algo":"quantum","scenario":"sensor-tree"}`}, // error path
		{"/batch", `{"algo":"greedy","scenario":"sensor-tree","scenario_seed":2}` + "\n" +
			`{"algo":"line-unit","scenario":"videowall-line","scenario_seed":5}` + "\n"},
		{"/session", `{"algo":"tree-unit","scenario":"caterpillar-backbone","scenario_seed":1}`},
	}
	for _, req := range bodies {
		statusA, bodyA := postJSON(t, srvA.URL+req.path, req.body)
		statusB, bodyB := postJSON(t, srvB.URL+req.path, req.body)
		if statusA != statusB {
			t.Fatalf("%s: status %d vs %d", req.path, statusA, statusB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("%s: recorder (sample=0) changed the response body:\n%s\nvs\n%s", req.path, bodyA, bodyB)
		}
	}
}

// TestSlowRequestTimeline is the acceptance scenario: a request over
// the slow threshold is retrievable by its X-Request-ID with a full
// phase timeline via GET /debug/requests/{id}.
func TestSlowRequestTimeline(t *testing.T) {
	e := New(Config{Workers: 2, TraceSample: 1, SlowThreshold: time.Nanosecond})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/solve",
		strings.NewReader(`{"algo":"dist-unit","scenario":"profit-ladder","scenario_seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "diag-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "diag-42" {
		t.Fatalf("response echoed X-Request-ID %q, want diag-42", got)
	}

	dresp, err := http.Get(srv.URL + "/debug/requests/diag-42")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/diag-42 status %d", dresp.StatusCode)
	}
	var payload debugRequestPayload
	if err := json.NewDecoder(dresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	rec := payload.Record
	if rec == nil {
		t.Fatalf("no completed record for diag-42: %+v", payload)
	}
	if rec.Endpoint != "solve" || rec.Algo != "dist-unit" || rec.Outcome != outcomeSolved || rec.DurNs <= 0 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Trace == nil || len(rec.Trace.Spans) == 0 {
		t.Fatal("slow request retained no span timeline")
	}
	names := map[string]bool{}
	for _, sp := range rec.Trace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queued", "compiled_model", "solve", "verify"} {
		if !names[want] {
			t.Fatalf("timeline misses the %q phase; spans: %v", want, names)
		}
	}
	// The solver's own phase spans nest under the request tree, and the
	// distributed run surfaces its per-round wall clock.
	if len(rec.Trace.Spans) <= 4 {
		t.Fatalf("no solver-internal spans nested under the request: %d spans", len(rec.Trace.Spans))
	}
	if rec.Trace.RoundsSummary == nil || rec.Trace.RoundsSummary.Rounds <= 0 {
		t.Fatalf("dist solve trace carries no rounds summary: %+v", rec.Trace.RoundsSummary)
	}

	// The request also landed in the slow-class listing (threshold 1ns).
	lresp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing debugRequestsPayload
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range listing.Slow {
		if r.ID == "diag-42" {
			found = true
			if r.Trace != nil {
				t.Fatal("listing leaked a span timeline (Lookup serves those)")
			}
		}
	}
	if !found {
		t.Fatalf("diag-42 missing from the slow class: %+v", listing.Slow)
	}
}

// TestTracedExactGreedySolverSpans: with every request sampled, exact
// and greedy requests record their solver's own spans (search, select)
// nested under the request's solve span, like every other algorithm.
func TestTracedExactGreedySolverSpans(t *testing.T) {
	e := New(Config{Workers: 1, TraceSample: 1})
	defer e.Close()
	p := testProblem(21)
	for _, tc := range []struct{ algo, span string }{{"exact", "search"}, {"greedy", "select"}} {
		id := "traced-" + tc.algo
		if _, err := e.Solve(WithRequestID(context.Background(), id), &Request{Algo: tc.algo, Problem: p}); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		rec, ok := e.rec.Lookup(id)
		if !ok || rec.Trace == nil {
			t.Fatalf("%s: no sampled record for %s", tc.algo, id)
		}
		spans := rec.Trace.Spans
		nested := false
		for _, sp := range spans {
			if sp.Name != tc.span {
				continue
			}
			for par := sp.Parent; par != obs.NoSpan; par = spans[par].Parent {
				if spans[par].Name == "solve" {
					nested = true
				}
			}
		}
		if !nested {
			t.Fatalf("%s: no %q span under \"solve\"; spans: %+v", tc.algo, tc.span, spans)
		}
	}
}

// TestFollowerLinksLeader: a coalesced request's record names the
// leader whose solve served it, and the coalescing lands in the event
// log. The leader is parked on the test gate until the follower has
// joined its flight, so the linkage is deterministic.
func TestFollowerLinksLeader(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()

	gotKey := make(chan string, 1)
	release := make(chan struct{})
	e.solveGate = func(key string) {
		gotKey <- key
		<-release
	}
	req := func() *Request {
		return &Request{Algo: "tree-unit", Scenario: "profit-ladder", ScenarioSeed: 7, Seed: 1}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Solve(WithRequestID(context.Background(), "leader-1"), req()); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	key := <-gotKey // the first request is now the flight leader
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Solve(WithRequestID(context.Background(), "follower-1"), req()); err != nil {
			t.Errorf("follower: %v", err)
		}
	}()
	awaitWaiters(t, &e.solveFlight, key, 1)
	close(release)
	wg.Wait()

	rec, ok := e.Recorder().Lookup("follower-1")
	if !ok {
		t.Fatal("follower record not retained")
	}
	if rec.Outcome != outcomeCoalesced || rec.LinkedTo != "leader-1" {
		t.Fatalf("follower record = %+v, want coalesced + linked to leader-1", rec)
	}
	lead, ok := e.Recorder().Lookup("leader-1")
	if !ok || lead.Outcome != outcomeSolved {
		t.Fatalf("leader record = %+v (ok=%v)", lead, ok)
	}
	var coalesce *obs.Event
	for _, ev := range e.Recorder().Events(0) {
		if ev.Type == "coalesce" && ev.ID == "follower-1" {
			coalesce = &ev
			break
		}
	}
	if coalesce == nil || !strings.Contains(coalesce.Detail, "leader-1") {
		t.Fatalf("no coalesce event naming the leader: %+v", coalesce)
	}
}

// TestDebugEndpointsContract drives the /debug surface through the
// strict server: every response is one status code with one JSON body,
// unknown ids answer a single 404 document, and generated request ids
// are echoed and resolvable.
func TestDebugEndpointsContract(t *testing.T) {
	srv := newStrictServer(t)

	// A request without an id gets one minted and echoed.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/solve",
		strings.NewReader(`{"algo":"greedy","scenario":"sensor-tree","scenario_seed":4}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("no X-Request-ID minted for an id-less request")
	}

	dresp, err := http.Get(srv.URL + "/debug/requests/" + minted)
	if err != nil {
		t.Fatal(err)
	}
	var payload debugRequestPayload
	body := decodeAll(t, dresp)
	if dresp.StatusCode != http.StatusOK || json.Unmarshal(body, &payload) != nil || payload.Record == nil {
		t.Fatalf("minted id not resolvable: status %d body %s", dresp.StatusCode, body)
	}
	if payload.Record.Endpoint != "solve" {
		t.Fatalf("record endpoint = %q", payload.Record.Endpoint)
	}

	lresp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var listing debugRequestsPayload
	if body := decodeAll(t, lresp); lresp.StatusCode != http.StatusOK || json.Unmarshal(body, &listing) != nil {
		t.Fatalf("/debug/requests: status %d body %s", lresp.StatusCode, body)
	}
	if len(listing.Recent) == 0 {
		t.Fatal("recent class empty after a completed request")
	}
	if listing.Active == nil || listing.Slow == nil || listing.Errors == nil {
		t.Fatal("listing classes must marshal as arrays, never null")
	}

	eresp, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	var events debugEventsPayload
	if body := decodeAll(t, eresp); eresp.StatusCode != http.StatusOK || json.Unmarshal(body, &events) != nil {
		t.Fatalf("/debug/events: status %d body %s", eresp.StatusCode, body)
	}

	status, body := getStatus(t, srv.URL+"/debug/requests/never-seen")
	wantJSONError(t, "unknown request id", status, http.StatusNotFound, body)
}

// TestDebugDisabledRecorder: with DisableRecorder the /debug surface
// answers a single 404 JSON document.
func TestDebugDisabledRecorder(t *testing.T) {
	e := New(Config{Workers: 1, DisableRecorder: true})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	for _, path := range []string{"/debug/requests", "/debug/requests/x", "/debug/events"} {
		status, body := getStatus(t, srv.URL+path)
		wantJSONError(t, path, status, http.StatusNotFound, body)
	}
}

func decodeAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, decodeAll(t, resp)
}

// TestRequestLogNDJSON: Config.RequestLog receives one parseable line
// per completed request, span timelines stripped, errors included.
func TestRequestLogNDJSON(t *testing.T) {
	var buf bytes.Buffer
	e := New(Config{Workers: 2, RequestLog: &buf, TraceSample: 1})
	defer e.Close()
	ctx := context.Background()

	if _, err := e.Solve(WithRequestID(ctx, "log-ok"), &Request{
		Algo: "greedy", Scenario: "sensor-tree", ScenarioSeed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(WithRequestID(ctx, "log-bad"), &Request{Algo: "quantum"}); err == nil {
		t.Fatal("bad algo solved")
	}
	info, err := e.OpenSession(&SessionRequest{Algo: "tree-unit", Scenario: "caterpillar-backbone", ScenarioSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SessionSchedule(WithRequestID(ctx, "log-sched"), info.SessionID); err != nil {
		t.Fatal(err)
	}

	var recs []obs.ReqRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec obs.ReqRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("unparseable request-log line: %s", sc.Bytes())
		}
		if rec.Trace != nil {
			t.Fatalf("request log leaked a span timeline: %s", sc.Bytes())
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("%d request-log lines, want 3", len(recs))
	}
	byID := map[string]obs.ReqRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	if r := byID["log-ok"]; r.Endpoint != "solve" || r.Algo != "greedy" || r.Error != "" {
		t.Fatalf("log-ok line = %+v", r)
	}
	if r := byID["log-bad"]; r.Error == "" {
		t.Fatalf("log-bad line lost its error: %+v", r)
	}
	if r := byID["log-sched"]; r.Endpoint != "session_schedule" {
		t.Fatalf("log-sched line = %+v", r)
	}
}

// TestSessionLifecycleEvents: open/close/evict (both LRU and idle) and
// resolves appear in the event log with the session id.
func TestSessionLifecycleEvents(t *testing.T) {
	e := New(Config{Workers: 1, MaxSessions: 1, SessionIdleTimeout: 40 * time.Millisecond})
	defer e.Close()
	ctx := context.Background()
	open := func() string {
		t.Helper()
		info, err := e.OpenSession(&SessionRequest{Algo: "tree-unit", Scenario: "caterpillar-backbone", ScenarioSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return info.SessionID
	}

	s1 := open()
	if _, err := e.SessionEvents(ctx, s1, []online.Event{{Op: online.OpResolve}}); err != nil {
		t.Fatal(err)
	}
	s2 := open() // capacity 1: evicts s1 via LRU
	time.Sleep(60 * time.Millisecond)
	s3 := open() // idle sweep evicts s2
	if err := e.CloseSession(s3); err != nil {
		t.Fatal(err)
	}

	byType := map[string][]obs.Event{}
	for _, ev := range e.Recorder().Events(0) {
		byType[ev.Type] = append(byType[ev.Type], ev)
	}
	if n := len(byType["session_open"]); n != 3 {
		t.Fatalf("%d session_open events, want 3", n)
	}
	if evs := byType["session_evict_lru"]; len(evs) != 1 || evs[0].Detail != s1 {
		t.Fatalf("session_evict_lru events = %+v, want exactly %s", evs, s1)
	}
	if evs := byType["session_evict_idle"]; len(evs) != 1 || evs[0].Detail != s2 {
		t.Fatalf("session_evict_idle events = %+v, want exactly %s", evs, s2)
	}
	if evs := byType["session_close"]; len(evs) != 1 || evs[0].Detail != s3 {
		t.Fatalf("session_close events = %+v, want exactly %s", evs, s3)
	}
	resolves := byType["session_resolve"]
	if len(resolves) != 1 || !strings.Contains(resolves[0].Detail, "session="+s1) {
		t.Fatalf("session_resolve events = %+v", resolves)
	}
}

// TestSLOAccounting: objective misses and server-side failures burn
// error budget; client errors spend none; the snapshot and Prometheus
// expositions both carry the series.
func TestSLOAccounting(t *testing.T) {
	// A 1ns objective makes every completed solve an objective miss.
	e := New(Config{Workers: 1, SolveSLO: time.Nanosecond, SLOTarget: 0.99})
	defer e.Close()
	ctx := context.Background()

	if _, err := e.Solve(ctx, &Request{Algo: "greedy", Scenario: "sensor-tree", ScenarioSeed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(ctx, &Request{Algo: "quantum"}); err == nil {
		t.Fatal("bad algo solved")
	}

	slo := e.Metrics().SLO
	solve, ok := slo["solve"]
	if !ok {
		t.Fatalf("metrics snapshot misses the solve SLO: %+v", slo)
	}
	// One accounted request (the client error spends no budget), and it
	// missed the 1ns objective.
	if solve.Total != 1 || solve.Good != 0 {
		t.Fatalf("solve SLO good/total = %d/%d, want 0/1", solve.Good, solve.Total)
	}
	if solve.BurnRate5m < 99 || solve.BurnRateTotal < 99 {
		t.Fatalf("burn rates = %g/%g, want ~100 (bad fraction 1.0 over a 0.01 budget)",
			solve.BurnRate5m, solve.BurnRateTotal)
	}
	if sess, ok := slo["session"]; !ok || sess.Total != 0 {
		t.Fatalf("session SLO = %+v (ok=%v), want present with no traffic", sess, ok)
	}

	var prom bytes.Buffer
	if err := e.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, series := range []string{
		`sched_slo_requests_total{class="solve"} 1`,
		`sched_slo_good_total{class="solve"} 0`,
		`sched_slo_burn_rate{class="solve",window="5m"}`,
		`sched_slo_burn_rate{class="solve",window="total"}`,
		`sched_slo_burn_rate{class="session",window="5m"}`,
		`sched_active_requests`,
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("Prometheus exposition misses %q:\n%s", series, out)
		}
	}
}

// TestCacheEvictionEvents: capacity evictions of the result cache land
// in the event log.
func TestCacheEvictionEvents(t *testing.T) {
	e := New(Config{Workers: 1, ResultCacheSize: 1, CacheShards: 1})
	defer e.Close()
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := e.Solve(ctx, &Request{Algo: "greedy", Scenario: "sensor-tree", ScenarioSeed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, ev := range e.Recorder().Events(0) {
		if ev.Type == "evict_result" {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("%d evict_result events after overflowing a 1-entry cache, want >=2", n)
	}
}
