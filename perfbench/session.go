package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"treesched/internal/instance"
	"treesched/internal/online"
	"treesched/internal/online/trace"
	"treesched/internal/scenario"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// sessionPairs are the two sessions of session-churn: a line and a tree
// over job pools of a thousand and five thousand jobs. The client
// alternates between them. The pools are sized so an op costs about the
// same on either session, so the pooled latency quantiles do not sit
// between two modes.
//
// An op's cost grows as a session ages, so the window runs fixed passes:
// each pass sends the same sessionPass batches to freshly opened
// sessions, and re-opening them between passes is kept out of the
// window. Every run then measures the same ops, however fast it goes.
var sessionPairs = []pair{
	{scenario: "videowall-line", algo: "line-unit", params: scenario.Params{Demands: 1000}},
	{scenario: "caterpillar-backbone", algo: "tree-unit", params: scenario.Params{Demands: 5000}},
}

const (
	sessionChurn   = 0.02 // share of live jobs swapped per batch
	sessionInitial = 0.5  // share of the pool live after set-up
	sessionPass    = 250  // batches per session per pass
	sessionKept    = 32   // leading replies of each session's first pass kept whole
	sessionRatio   = 16   // certified-ratio schedules per session
	sessionReplay  = 24   // replayed batches per session
)

var sessionRef = refPlan{every: 10, reps: 14}

// churnSession is one session: its trace and request bytes, and what
// each pass of the window received.
type churnSession struct {
	tcfg    trace.Config
	header  trace.Header
	open    request
	initial []byte   // NDJSON: the initial adds and the first resolve
	batches [][]byte // NDJSON per batch: departures, arrivals, resolve

	posts []request // the current pass's POST /session/{id}/events per batch
	get   request   // the current pass's GET /session/{id}/schedule
	// Per pass: the session id on the measured server and the digest of
	// each batch's schedule reply (zero for a failed op).
	ids     []string
	digests [][][32]byte
	kept    [][]byte // the first pass's leading schedule replies
}

type sessionWorkload struct {
	sessions []*churnSession
	last     []*online.Session // sessions of the newest replay state
}

func runSessionChurn(cfg config, rep *report) error {
	w := &sessionWorkload{}
	for c, pr := range sessionPairs {
		s, err := newChurnSession(trace.Config{
			Scenario: pr.scenario, Params: pr.params, Seed: subSeed(cfg.seed, 6, c), Algo: pr.algo,
			InitialFrac: sessionInitial, Churn: sessionChurn, Batches: sessionPass,
		})
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s)
	}

	srv, err := setUp(cfg, rep, func(srv *server) error {
		c, err := dial(srv.addr)
		if err != nil {
			return err
		}
		defer c.close()
		for _, s := range w.sessions {
			s.ids, s.digests = nil, nil
			if err := s.openOn(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.stop() // nolint:errcheck — the explicit stop below reports
	ref, err := startRef()
	if err != nil {
		return err
	}
	defer ref.stop() // nolint:errcheck — the explicit stop below reports

	// Op i of a pass is batch i/2 of session i%2.
	perPass := sessionPass * len(w.sessions)
	cls, elapsed := closedLoop(srv.addr, ref.addr, sessionRef, clients, cfg.window(), func(cl *client, i int) {
		c, err := cl.conn()
		if err != nil {
			cl.failOp(true, "dial: %v", err)
			return
		}
		if i > 0 && i%perPass == 0 {
			if err := cl.untimed(func() error { return w.reopen(c) }); err != nil {
				cl.failOp(true, "re-open the sessions: %v", err)
				return
			}
		}
		j := i % perPass
		s, b := w.sessions[j%len(w.sessions)], j/len(w.sessions)
		if len(s.digests) != i/perPass+1 {
			cl.failOp(false, "session not open for pass %d", i/perPass)
			return
		}
		status, body, ms1, err := c.timedDo(s.posts[b])
		if err != nil {
			cl.failOp(true, "events transport: %v", err)
			return
		}
		if status != 200 {
			cl.failOp(false, "events status %d: %s", status, snippet(body))
			return
		}
		status, body, ms2, err := c.timedDo(s.get)
		switch {
		case err != nil:
			cl.failOp(true, "schedule transport: %v", err)
		case status != 200:
			cl.failOp(false, "schedule status %d: %s", status, snippet(body))
		default:
			cl.observe(ms1 + ms2)
			s.record(b, body)
		}
	})
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := ref.stop(); err != nil {
		return err
	}
	rep.e2e("peak_rss_mb", rss)
	if err := tally(rep, cls, elapsed); err != nil {
		return err
	}
	rep.Samples["session_passes"] = int64(len(w.sessions[0].ids))
	if err := w.check(rep); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	// Sessions make no /solve cache lookups.
	cacheLayers(rep, cacheCounters{}, cacheCounters{})
	if err := traceReplay(cfg, rep, w); err != nil {
		return err
	}
	var inc, all int64
	for _, s := range w.last {
		st := s.Stats()
		inc += st.IncrementalResolves
		all += st.Resolves
	}
	rep.Layers["online.incremental_share"] = metric{ratio(inc, all), "share"}
	return nil
}

func newChurnSession(tcfg trace.Config) (*churnSession, error) {
	tr, err := trace.FromScenario(tcfg)
	if err != nil {
		return nil, err
	}
	open, err := json.Marshal(service.SessionRequest{
		Algo: tr.Header.Algo, Network: tr.Header.Network, Epsilon: tr.Header.Epsilon,
		// The server must resolve with the seed trace.Replay uses.
		Seed: uint64(tr.Header.Seed),
	})
	if err != nil {
		return nil, err
	}
	s := &churnSession{tcfg: tcfg, header: tr.Header, open: postRequest("/session", "application/json", open)}
	groups := splitBatches(tr.Events)
	if s.initial, err = ndjson(groups[0]); err != nil {
		return nil, err
	}
	for _, g := range groups[1:] {
		body, err := ndjson(g)
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, body)
	}
	return s, nil
}

// splitBatches cuts an event stream after every resolve.
func splitBatches(evs []online.Event) [][]online.Event {
	var out [][]online.Event
	start := 0
	for i, ev := range evs {
		if ev.Op == online.OpResolve {
			out = append(out, evs[start:i+1])
			start = i + 1
		}
	}
	return out
}

func ndjson(evs []online.Event) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// reopen closes every session of the last pass and opens them afresh
// for the next.
func (w *sessionWorkload) reopen(c *conn) error {
	for _, s := range w.sessions {
		id := s.ids[len(s.ids)-1]
		status, body, err := c.do(deleteRequest("/session/" + id))
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("close session %s: status %d: %s", id, status, snippet(body))
		}
		if err := s.openOn(c); err != nil {
			return err
		}
	}
	return nil
}

// openOn opens the session on a server, commits its initial jobs and
// starts a pass on it.
func (s *churnSession) openOn(c *conn) error {
	status, body, err := c.do(s.open)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("open session: status %d: %s", status, snippet(body))
	}
	var info service.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	id := info.SessionID
	status, body, err = c.do(postRequest("/session/"+id+"/events", "application/x-ndjson", s.initial))
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("initial events: status %d: %s", status, snippet(body))
	}
	if s.posts == nil {
		s.posts = make([]request, len(s.batches))
	}
	for b, body := range s.batches {
		s.posts[b] = postRequest("/session/"+id+"/events", "application/x-ndjson", body)
	}
	s.get = getRequest("/session/" + id + "/schedule")
	s.ids = append(s.ids, id)
	s.digests = append(s.digests, make([][32]byte, 0, len(s.batches)))
	return nil
}

// record keeps a digest of batch i's schedule reply in the current
// pass, and the whole reply for the first pass's leading batches. A
// pass's batches complete in order.
func (s *churnSession) record(i int, body []byte) {
	pass := len(s.digests) - 1
	d := s.digests[pass]
	for len(d) < i {
		d = append(d, [32]byte{}) // a failed op: matches nothing
	}
	s.digests[pass] = append(d, sha256.Sum256(body))
	if pass == 0 && i < sessionKept {
		for len(s.kept) < i {
			s.kept = append(s.kept, nil)
		}
		s.kept = append(s.kept, bytes.Clone(body))
	}
}

// check verifies every schedule reply the clients received. Each
// session is replayed in-process over the same events: every reply must
// be byte-identical to the replayed schedule, which itself must pass
// verify.Solution and the profit, weak-duality and bound checks. The
// leading replies are also checked whole: their profit and count must
// equal trace.Replay's outcomes, and their selection must be feasible
// for the jobs it names.
func (w *sessionWorkload) check(rep *report) error {
	// The sessions replay in parallel, one per core.
	errs := make([]error, len(w.sessions))
	fails := make([][]string, len(w.sessions))
	var wg sync.WaitGroup
	for c, s := range w.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[c], errs[c] = s.check()
		}()
	}
	wg.Wait()
	for c := range w.sessions {
		if errs[c] != nil {
			return errs[c]
		}
		for _, f := range fails[c] {
			rep.fail(1, "session %d: %s", c, f)
		}
	}
	var ratios []float64
	for c, s := range w.sessions {
		if len(s.kept) < sessionKept {
			return fmt.Errorf("session %d completed %d batches, fewer than the %d whose replies are kept; the window is too short", c, len(s.kept), sessionKept)
		}
		for _, body := range s.kept[:sessionRatio] {
			var sc service.SessionSchedule
			if err := json.Unmarshal(body, &sc); err != nil {
				return fmt.Errorf("session %d: decode schedule: %w", c, err)
			}
			ratios = append(ratios, certified(&sc.Response))
		}
	}
	rep.Samples["certified_ratio_inputs"] = int64(len(ratios))
	rep.e2e("certified_ratio_mean", mean(ratios))
	return nil
}

// check returns one message per failed op of every pass.
func (s *churnSession) check() ([]string, error) {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	apply, _, err := s.replayState()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, d := range s.digests {
		n = max(n, len(d))
	}
	for b := 0; b < n; b++ {
		evs, err := decodeEvents(s.batches[b])
		if err != nil {
			return nil, err
		}
		sched, err := apply(evs)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", b, err)
		}
		var bad error // the replayed schedule's own check, run once
		checked := false
		for p, d := range s.digests {
			if b >= len(d) || d[b] == ([32]byte{}) {
				continue // the op failed on the wire and is already counted
			}
			want, err := scheduleReply(s.ids[p], sched)
			if err != nil {
				return nil, err
			}
			if sha256.Sum256(want) != d[b] {
				failf("pass %d batch %d: schedule reply differs from the replayed schedule", p, b)
				continue
			}
			if !checked {
				checked = true
				resp := scheduleResponse(sched)
				if bad = verify.Solution(sched.Problem, sched.Result.Selected); bad == nil {
					bad = checkSolution(sched.Problem, &resp)
				}
			}
			if bad != nil {
				failf("pass %d batch %d: %v", p, b, bad)
			}
		}
	}

	// The first pass's leading replies against trace.Replay of the same
	// events.
	kept := len(s.kept)
	if kept == 0 {
		return fails, nil
	}
	tcfg := s.tcfg
	tcfg.Batches = kept
	tr, err := trace.FromScenario(tcfg)
	if err != nil {
		return nil, err
	}
	outcomes, _, err := trace.Replay(tr)
	if err != nil {
		return nil, err
	}
	payload := map[int64]instance.Demand{}
	var resolves []trace.Outcome
	for k, ev := range tr.Events {
		if ev.Op == online.OpAdd {
			payload[ev.Job.ID] = ev.Job.Demand
		}
		if ev.Op == online.OpResolve {
			resolves = append(resolves, outcomes[k])
		}
	}
	for b := 0; b < kept; b++ {
		if s.kept[b] == nil {
			continue
		}
		var sc service.SessionSchedule
		if err := json.Unmarshal(s.kept[b], &sc); err != nil {
			failf("batch %d: decode schedule: %v", b, err)
			continue
		}
		o := resolves[b+1] // resolves[0] is the set-up resolve
		if !near(sc.Response.Profit, o.Profit) || sc.Response.Scheduled != o.Scheduled || sc.Jobs != o.Jobs {
			failf("batch %d: schedule (profit %g, %d scheduled, %d jobs) differs from trace.Replay (%g, %d, %d)",
				b, sc.Response.Profit, sc.Response.Scheduled, sc.Jobs, o.Profit, o.Scheduled, o.Jobs)
			continue
		}
		if err := checkJobs(s.header.Network, payload, &sc); err != nil {
			failf("batch %d: %v", b, err)
		}
	}
	return fails, nil
}

// checkJobs checks a schedule reply against the jobs it names: the
// selected instances, renumbered onto a problem holding only their jobs,
// must be feasible, and the reply's profit, dual bound and ratio must
// pass checkSolution.
func checkJobs(network *instance.Problem, payload map[int64]instance.Demand, sc *service.SessionSchedule) error {
	if len(sc.JobIDs) != len(sc.Response.Selected) {
		return fmt.Errorf("%d job ids for %d selected instances", len(sc.JobIDs), len(sc.Response.Selected))
	}
	p := *network
	p.Demands = make([]instance.Demand, len(sc.JobIDs))
	r := sc.Response
	r.Selected = append([]instance.Inst(nil), sc.Response.Selected...)
	for k, id := range sc.JobIDs {
		d, ok := payload[id]
		if !ok {
			return fmt.Errorf("selected job %d never arrived", id)
		}
		d.ID = k
		p.Demands[k] = d
		r.Selected[k].Demand = int32(k)
	}
	return checkSolution(&p, &r)
}

func decodeEvents(body []byte) ([]online.Event, error) {
	var evs []online.Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 32<<20)
	for sc.Scan() {
		var ev online.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// replayState opens a fresh in-process session with the server's
// configuration and commits the initial jobs. apply applies one batch's
// events and returns the schedule its resolve produced.
func (s *churnSession) replayState() (apply func([]online.Event) (*online.Schedule, error), sess *online.Session, err error) {
	sess, err = online.NewSession(s.header.Network, online.Config{
		Algo: s.header.Algo, Epsilon: s.header.Epsilon, Seed: uint64(s.header.Seed), MaxJobs: serverConfig().MaxDemands,
	})
	if err != nil {
		return nil, nil, err
	}
	apply = func(evs []online.Event) (*online.Schedule, error) {
		var sched *online.Schedule
		for _, ev := range evs {
			out, err := sess.Apply(ev)
			if err != nil {
				return nil, err
			}
			if out != nil {
				sched = out
			}
		}
		if sched == nil {
			return nil, fmt.Errorf("batch has no resolve")
		}
		return sched, nil
	}
	initial, err := decodeEvents(s.initial)
	if err != nil {
		return nil, nil, err
	}
	if _, err := apply(initial); err != nil {
		return nil, nil, err
	}
	return apply, sess, nil
}

// scheduleResponse and scheduleReply assemble the GET
// /session/{id}/schedule reply the service builds for a schedule.
func scheduleResponse(sched *online.Schedule) service.Response {
	res := sched.Result
	r := service.Response{
		Algorithm:      res.Name,
		Profit:         res.Profit,
		DualUpperBound: res.DualUB,
		CertifiedRatio: res.CertifiedRatio,
		Bound:          res.Bound,
		Lambda:         res.Lambda,
		Demands:        sched.Jobs,
		Scheduled:      len(res.Selected),
		Selected:       res.Selected,
	}
	if r.Selected == nil {
		r.Selected = []instance.Inst{}
	}
	return r
}

func scheduleValue(id string, sched *online.Schedule) *service.SessionSchedule {
	out := &service.SessionSchedule{
		SessionID:   id,
		Version:     sched.Version,
		Jobs:        sched.Jobs,
		Incremental: sched.Incremental,
		JobIDs:      sched.JobIDs,
		Response:    scheduleResponse(sched),
	}
	if out.JobIDs == nil {
		out.JobIDs = []int64{}
	}
	return out
}

func scheduleReply(id string, sched *online.Schedule) ([]byte, error) {
	return encodeReply(newTracer(modeOff), scheduleValue(id, sched))
}

// The traced replay: op i is batch i%sessionReplay of session
// i/sessionReplay, through decode, staging applies, the resolve, the
// feasibility gate and the reply encoding.

func (w *sessionWorkload) ops() int { return sessionReplay * len(w.sessions) }

func (w *sessionWorkload) client(int) int { return 0 }

func (w *sessionWorkload) newState() (func(t *tracer, i int) ([]byte, error), error) {
	sess := make([]*online.Session, len(w.sessions))
	for c, s := range w.sessions {
		_, ss, err := s.replayState()
		if err != nil {
			return nil, err
		}
		sess[c] = ss
	}
	w.last = sess
	return func(t *tracer, i int) ([]byte, error) {
		c, b := i/sessionReplay, i%sessionReplay
		s, ss := w.sessions[c], sess[c]
		var evs []online.Event
		if err := t.call("instance.decode", func() (err error) {
			evs, err = decodeEvents(s.batches[b])
			return err
		}); err != nil {
			return nil, err
		}
		staging, resolve := evs[:len(evs)-1], evs[len(evs)-1]
		if err := t.call("online.apply", func() error {
			for _, ev := range staging {
				if _, err := ss.Apply(ev); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		var sched *online.Schedule
		if err := t.call("online.resolve", func() (err error) {
			sched, err = ss.Apply(resolve)
			return err
		}); err != nil {
			return nil, err
		}
		if err := t.call("verify.solution", func() error {
			return verify.Solution(sched.Problem, sched.Result.Selected)
		}); err != nil {
			return nil, err
		}
		return encodeReply(t, scheduleValue(s.ids[0], sched))
	}, nil
}

func (w *sessionWorkload) wire(i int) []byte {
	s := w.sessions[i/sessionReplay]
	if b := i % sessionReplay; b < len(s.kept) {
		return s.kept[b]
	}
	return nil
}
