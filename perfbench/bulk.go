package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"treesched"
	"treesched/internal/core"
	"treesched/internal/instance"
	"treesched/internal/scenario"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// bulkPairs are the Scale presets at default size, solved through the
// root treesched API by one in-process caller.
var bulkPairs = []pair{
	{scenario: "line-100k", algo: "line-unit"},
	{scenario: "random-tree-50k", algo: "tree-unit"},
	{scenario: "caterpillar-20k", algo: "dist-unit"},
}

// bulkWarmDiv shrinks the presets for the set-up's warm-up pass.
const bulkWarmDiv = 20

// bulkRefReps sizes the reference run before each solve: a few percent
// of a solve's time, on every core.
const bulkRefReps = 100

type bulkWorkload struct {
	problems []*instance.Problem
	first    []*service.Response // each preset's first timed schedule
}

// bulkSolve is one op through the root API: compile, then solve.
func bulkSolve(p *instance.Problem, algo string) (*treesched.Result, *treesched.DistributedResult, error) {
	c, err := treesched.CompileProblem(p)
	if err != nil {
		return nil, nil, err
	}
	switch algo {
	case "line-unit":
		res, err := c.LineUnit(treesched.Options{})
		return res, nil, err
	case "tree-unit":
		res, err := c.TreeUnit(treesched.Options{})
		return res, nil, err
	case "dist-unit":
		dres, err := c.DistributedUnit(treesched.Options{})
		if err != nil {
			return nil, nil, err
		}
		return dres.Result, dres, nil
	}
	return nil, nil, fmt.Errorf("no solver for %q", algo)
}

// warmParams shrinks a preset by bulkWarmDiv.
func warmParams(s *scenario.Scenario) scenario.Params {
	d := s.Defaults
	return scenario.Params{Demands: d.Demands / bulkWarmDiv, Size: d.Size, Networks: d.Networks / bulkWarmDiv}
}

func runBulkScale(cfg config, rep *report) error {
	w := &bulkWorkload{}
	var warm []*instance.Problem
	for k, pr := range bulkPairs {
		s, ok := scenario.Get(pr.scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", pr.scenario)
		}
		p, err := s.Generate(scenario.Params{}, subSeed(cfg.seed, 8, k))
		if err != nil {
			return err
		}
		w.problems = append(w.problems, p)
		if p, err = s.Generate(warmParams(s), subSeed(cfg.seed, 9, k)); err != nil {
			return err
		}
		warm = append(warm, p)
	}

	// Set-up: a warm-up pass over shrunken presets, so the timed ops do
	// not pay for first-use costs (heap growth, lazy runtime set-up).
	var setups []float64
	for r := 0; r < setupRuns; r++ {
		begin := time.Now()
		for k, p := range warm {
			if _, _, err := bulkSolve(p, bulkPairs[k].algo); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	rep.e2e("setup_s", median(setups))

	// Whole cycles over the three presets, so the op mix does not depend
	// on where the window ends.
	var cycles []bulkCycle
	var refMs []float64
	var outs [][]*service.Response // nil for a failed op
	begin := time.Now()
	for time.Since(begin) < cfg.window() {
		var cyc bulkCycle
		out := make([]*service.Response, len(bulkPairs))
		for k, pr := range bulkPairs {
			refMs = append(refMs, parallelRef(runtime.GOMAXPROCS(0), bulkRefReps))
			t0 := time.Now()
			res, dres, err := bulkSolve(w.problems[k], pr.algo)
			cyc.elapsed += time.Since(t0)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			rep.Attempted++
			if err != nil {
				rep.fail(1, "%s: %v", pr.scenario, err)
				continue
			}
			cyc.ms = append(cyc.ms, ms)
			out[k] = solveResponse(&service.Request{}, len(w.problems[k].Demands), res, dres)
		}
		cycles = append(cycles, cyc)
		outs = append(outs, out)
	}
	elapsed := time.Since(begin)
	rss, err := vmHWM(0)
	if err != nil {
		return err
	}
	rep.e2e("peak_rss_mb", rss)
	rep.Samples["window_ms"] = elapsed.Milliseconds()
	bulkThroughput(rep, cycles)
	if err := refMetrics(rep, refMs, 0); err != nil {
		return err
	}

	if err := w.check(rep, outs); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	// The library path has no transport and no caches.
	rep.Layers["service.transport_ms"] = metric{0, "ms"}
	cacheLayers(rep, cacheCounters{}, cacheCounters{})
	return traceReplay(cfg, rep, w)
}

// bulkCycle is one pass over the three presets.
type bulkCycle struct {
	elapsed time.Duration // the time its solves took, failed ones too
	ms      []float64     // latencies of the pass's successful solves
}

// bulkThroughput records the throughput and latency metrics, each the
// median over the cycles: ops_per_s is a cycle's successful solves per
// second, latency_p50_ms its mean solve latency and latency_p99_ms its
// slowest solve. The three solves of a cycle are different presets, so
// a cycle's middle solve would switch from one preset to another as
// their speeds drift; the mean does not. A cycle has no ten samples
// beyond a p99; samples.latency_beyond_p99 = 0 says so.
func bulkThroughput(rep *report, cycles []bulkCycle) {
	var rate, mid, slow []float64
	var n int64
	for _, c := range cycles {
		if len(c.ms) == 0 {
			continue
		}
		n += int64(len(c.ms))
		rate = append(rate, float64(len(c.ms))/c.elapsed.Seconds())
		mid = append(mid, mean(c.ms))
		slow = append(slow, slices.Max(c.ms))
	}
	rep.Samples["latency"] = n
	rep.Samples["latency_chunks"] = int64(len(rate))
	rep.Samples["latency_beyond_p99"] = 0
	rep.e2e("ops_per_s", median(rate))
	rep.e2e("latency_p50_ms", median(mid))
	rep.e2e("latency_p99_ms", median(slow))
}

// check verifies every op's schedule and that repeats of one preset are
// identical, and records certified_ratio_mean over the three presets.
func (w *bulkWorkload) check(rep *report, outs [][]*service.Response) error {
	w.first = make([]*service.Response, len(bulkPairs))
	for _, cycle := range outs {
		for k, r := range cycle {
			if r == nil {
				continue // failed op, already counted
			}
			if err := checkSolution(w.problems[k], r); err != nil {
				rep.fail(1, "%s: %v", bulkPairs[k].scenario, err)
				continue
			}
			if w.first[k] == nil {
				w.first[k] = r
				continue
			}
			if !reflect.DeepEqual(r, w.first[k]) {
				rep.fail(1, "%s: schedule differs from the first solve of the same problem", bulkPairs[k].scenario)
			}
		}
	}
	var ratios []float64
	for k, r := range w.first {
		if r == nil {
			return fmt.Errorf("%s: no op succeeded", bulkPairs[k].scenario)
		}
		ratios = append(ratios, certified(r))
	}
	rep.Samples["certified_ratio_inputs"] = int64(len(ratios))
	rep.e2e("certified_ratio_mean", mean(ratios))
	return nil
}

// The traced replay: one op per preset, through compile + model build,
// the solve and the feasibility check. Its reply is the schedule's JSON,
// compared with the timed window's schedule for the same preset.

func (w *bulkWorkload) ops() int { return len(bulkPairs) }

func (w *bulkWorkload) client(int) int { return 0 }

func (w *bulkWorkload) newState() (func(t *tracer, i int) ([]byte, error), error) {
	return func(t *tracer, i int) ([]byte, error) {
		p := w.problems[i]
		res, dres, err := compileAndSolve(t, p, bulkPairs[i].algo, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := t.call("verify.solution", func() error { return verify.Solution(p, res.Selected) }); err != nil {
			return nil, err
		}
		return json.Marshal(solveResponse(&service.Request{}, len(p.Demands), res, dres))
	}, nil
}

func (w *bulkWorkload) wire(i int) []byte {
	data, err := json.Marshal(w.first[i])
	if err != nil {
		return nil
	}
	return data
}
