package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"treesched/internal/instance"
	"treesched/internal/scenario"
	"treesched/internal/service"
)

// benchmarkJSON is the part of ../BENCHMARK.json this package must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's names and units
// to the metrics this program emits and layers.json's map.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}

	e2e := map[string]bool{}
	var gatedNames []struct{ name, unit string }
	for _, m := range endToEnd {
		e2e[m.name] = true
		if m.gated {
			gatedNames = append(gatedNames, struct{ name, unit string }{m.name, m.unit})
		}
	}
	if len(b.EndToEnd) != len(gatedNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program gates %d", len(b.EndToEnd), len(gatedNames))
	}
	for i, m := range gatedNames {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s, program %s %s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.name, m.unit)
		}
	}

	layers, err := perLayer()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(b.PerLayer), len(layers))
	}
	for i, l := range layers {
		if b.PerLayer[i].Name != l.Name || b.PerLayer[i].Unit != l.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, layers.json %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, l.Name, l.Unit)
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("%s moves unknown end-to-end metric %s", l.Name, m)
			}
		}
		for _, w := range append(append([]string(nil), l.On...), l.Steady...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s names unknown workload %s", l.Name, w)
			}
		}
	}
}

// buildServer builds cmd/schedserver for the run tests, and this
// program as the reference service they start.
func buildServer(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, b := range []struct{ pkg, bin, in string }{
		{"./cmd/schedserver", "schedserver", ".."},
		{".", "perfbench", "."},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, b.bin), b.pkg)
		cmd.Dir = b.in
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.bin, err, out)
		}
	}
	selfPath = filepath.Join(dir, "perfbench")
	return filepath.Join(dir, "schedserver")
}

// TestMinimalRunEmitsEveryMetric runs each workload for a minimal
// window with the traced replay on, and checks that every end-to-end
// and per-layer metric is emitted with its unit and that no op failed.
func TestMinimalRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	server := buildServer(t)
	b := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			rep, err := runWorkload(config{workload: name, seed: 3, seconds: 1, trace: true, server: server, out: out})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Errorf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, m := range b.EndToEnd {
				if got, ok := rep.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				if got, ok := rep.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if _, err := os.Stat(rep.SpanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// checkFixture is a one-input /solve workload with a genuine reply.
func checkFixture(t *testing.T) (*solveWorkload, []byte) {
	t.Helper()
	s, _ := scenario.Get("capacitated-tree")
	p, err := s.Generate(scenario.Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := service.Request{Algo: "arbitrary", Problem: p}
	in, err := newSolveInput(req, func() (*instance.Problem, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	resp, err := service.New(serverConfig()).Solve(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeReply(newTracer(modeOff), resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Selected) < 2 {
		t.Fatalf("fixture schedules %d instances; need two", len(resp.Selected))
	}
	w := &solveWorkload{inputs: []solveInput{in}, ratio: []int{0}, refs: true, got: newReplies()}
	w.got.reference(0, body)
	return w, body
}

// mutate decodes a reply, applies f and re-encodes it.
func mutate(t *testing.T, body []byte, f func(r *service.Response)) []byte {
	t.Helper()
	var r service.Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	f(&r)
	out, err := encodeReply(newTracer(modeOff), &r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChecksCountFailures(t *testing.T) {
	_, good := checkFixture(t)
	cases := []struct {
		name  string
		reply []byte
	}{
		{"infeasible selection", mutate(t, good, func(r *service.Response) {
			// The same demand twice: infeasible whatever the capacities.
			r.Selected = append(r.Selected, r.Selected[0])
			r.Scheduled++
			r.Profit += r.Selected[0].Profit
		})},
		{"wrong profit", mutate(t, good, func(r *service.Response) { r.Profit *= 1.01 })},
		{"dual bound below profit", mutate(t, good, func(r *service.Response) { r.DualUpperBound = r.Profit / 2 })},
		{"ratio above bound", mutate(t, good, func(r *service.Response) { r.CertifiedRatio = r.Bound * 2 })},
		// Valid JSON for the same schedule, but not the bytes of the first reply.
		{"mismatched repeat", []byte(strings.TrimSuffix(string(good), "\n") + " \n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := checkFixture(t)
			w.got.add(0, good)
			w.got.add(0, tc.reply)
			w.got.add(0, tc.reply)
			rep := newReport(config{workload: "test"})
			if err := w.check(rep); err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 2 {
				t.Errorf("failed = %d, want the 2 ops that got the bad reply (%v)", rep.Failed, rep.Failures)
			}
		})
	}

	t.Run("genuine repeats pass", func(t *testing.T) {
		w, good := checkFixture(t)
		w.got.add(0, good)
		rep := newReport(config{workload: "test"})
		if err := w.check(rep); err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Errorf("failed = %d: %v", rep.Failed, rep.Failures)
		}
	})
}

// TestServerErrorCountsAsFailed sends one op to a server that answers
// 500 and one to a server that is gone.
func TestServerErrorCountsAsFailed(t *testing.T) {
	w, _ := checkFixture(t)
	w.seqs = [][]int{{0}}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		http.Error(rw, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	cl := &client{addr: srv.Listener.Addr().String(), begin: time.Now()}
	w.op(cl, 0)
	srv.Close()
	if cl.failed != 1 || len(cl.lat) != 0 {
		t.Errorf("500 reply: failed = %d, latencies = %d; want 1 and 0", cl.failed, len(cl.lat))
	}
	w.op(cl, 0)
	if cl.failed != 2 {
		t.Errorf("closed server: failed = %d, want 2", cl.failed)
	}
}

func TestChunkedLatencies(t *testing.T) {
	var c []sample
	for i := 0; i < 3*latencyChunk; i++ {
		ms := 1.0
		if i%50 == 0 {
			ms = 10 // 2% slow
		}
		if i >= 2*latencyChunk && i < 2*latencyChunk+50 {
			ms = 50 // one stall in the last chunk
		}
		c = append(c, sample{at: time.Duration(i), ms: ms})
	}
	rep := newReport(config{})
	rep.throughput([][]sample{c}, latencyChunk)
	if got := rep.EndToEnd["latency_p99_ms"].Value; got != 10 {
		t.Errorf("p99 = %g, want 10 (the stall sits in one chunk of three)", got)
	}
	if got := rep.Samples["latency_beyond_p99"]; got != 10 {
		t.Errorf("beyond p99 = %d, want 10", got)
	}
}

func TestBulkThroughput(t *testing.T) {
	s := time.Second
	cycles := []bulkCycle{
		{elapsed: 3 * s, ms: []float64{500, 1000, 1500}},
		{elapsed: 3 * s, ms: []float64{1500, 1000, 500}},
		{elapsed: 6 * s, ms: []float64{3000, 1000, 2000}},
		{elapsed: s}, // every solve failed: no sample
	}
	rep := newReport(config{})
	bulkThroughput(rep, cycles)
	for name, want := range map[string]float64{"ops_per_s": 1, "latency_p50_ms": 1000, "latency_p99_ms": 1500} {
		if got := rep.EndToEnd[name].Value; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := rep.Samples["latency"]; got != 9 {
		t.Errorf("latency samples = %d, want 9", got)
	}
}
