package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"treesched/internal/core"
	"treesched/internal/instance"
	"treesched/internal/scenario"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// clients is the closed-loop client (and connection) count of the
// serving workloads. One client keeps the server to one request at a
// time, so an op's latency is the server's own cost and not a share of
// the cores it splits with a second request or with the load
// generator; runs on a shared host stay comparable.
const clients = 1

// pair is one scenario × algorithm combination of the serving mix.
type pair struct {
	scenario string
	algo     string
	params   scenario.Params
}

// solveInput is one POST /solve request, pre-marshalled.
type solveInput struct {
	req     service.Request
	http    request
	problem func() (*instance.Problem, error) // the problem the reply answers
}

func newSolveInput(req service.Request, problem func() (*instance.Problem, error)) (solveInput, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return solveInput{}, err
	}
	return solveInput{req: req, http: postRequest("/solve", "application/json", body), problem: problem}, nil
}

// solveWorkload is a POST /solve traffic mix.
type solveWorkload struct {
	inputs []solveInput
	warm   []int   // inputs of the warm-up pass, in order
	seqs   [][]int // seqs[client][i] is the input of the client's op i
	wrap   bool    // clients cycle through their sequence (repeats are intended)
	refs   bool    // the warm-up replies are the expected timed replies
	ratio  []int   // the fixed inputs certified_ratio_mean averages over
	replay []int   // the inputs the traced run replays, in order
	ref    refPlan // how the clients call the reference service
	// replayOp returns the traced run's op for a fresh state.
	replayOp func(w *solveWorkload) (func(t *tracer, i int) ([]byte, error), error)

	got *replies
}

// runSolve drives a /solve workload end to end: set-up, timed window,
// output checks and, with cfg.trace, the traced replay.
func runSolve(cfg config, rep *report, w *solveWorkload) error {
	w.got = newReplies()
	warmBodies := make([][]byte, len(w.warm))
	srv, err := setUp(cfg, rep, func(srv *server) error {
		c, err := dial(srv.addr)
		if err != nil {
			return err
		}
		defer c.close()
		for k, in := range w.warm {
			status, body, err := c.do(w.inputs[in].http)
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("warm-up request %d: status %d: %s", in, status, snippet(body))
			}
			warmBodies[k] = bytes.Clone(body)
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
	for k, in := range w.warm {
		if w.refs {
			w.got.reference(in, warmBodies[k])
		}
	}

	before, err := srv.counters()
	if err != nil {
		return err
	}
	cls, elapsed := closedLoop(srv.addr, ref.addr, w.ref, clients, cfg.window(), w.op)
	after, err := srv.counters()
	if err != nil {
		return err
	}
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
	if err := w.check(rep); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	cacheLayers(rep, before, after)
	return traceReplay(cfg, rep, w)
}

// op is client cl's i-th timed request.
func (w *solveWorkload) op(cl *client, i int) {
	seq := w.seqs[cl.id]
	if i >= len(seq) && !w.wrap {
		cl.failOp(false, "input list exhausted after %d ops", len(seq))
		return
	}
	in := seq[i%len(seq)]
	c, err := cl.conn()
	if err != nil {
		cl.failOp(true, "dial: %v", err)
		return
	}
	status, body, ms, err := c.timedDo(w.inputs[in].http)
	switch {
	case err != nil:
		cl.failOp(true, "transport: %v", err)
	case status != 200:
		cl.failOp(false, "status %d: %s", status, snippet(body))
	default:
		cl.observe(ms)
		w.got.add(in, body)
	}
}

// check runs the output checks on every distinct reply and records
// certified_ratio_mean. A failed check fails every op that received the
// reply.
func (w *solveWorkload) check(rep *report) error {
	for in, bodies := range w.got.bodies {
		p, err := w.inputs[in].problem()
		if err != nil {
			return fmt.Errorf("regenerate input %d: %w", in, err)
		}
		uses := w.got.uses[in]
		for k, body := range bodies {
			if _, err := checkReply(p, body); err != nil {
				// A reference reply no timed op received still fails once.
				rep.fail(max(uses[k], 1), "input %d: %v", in, err)
			} else if w.refs && k > 0 {
				rep.fail(uses[k], "input %d: reply differs from the first reply to the same request", in)
			}
		}
	}
	var ratios []float64
	for _, in := range w.ratio {
		bodies := w.got.bodies[in]
		if len(bodies) == 0 {
			return fmt.Errorf("input %d of the certified-ratio list got no reply; the window is too short", in)
		}
		var r service.Response
		if err := json.Unmarshal(bodies[0], &r); err != nil {
			return fmt.Errorf("decode reply to input %d: %w", in, err)
		}
		ratios = append(ratios, certified(&r))
	}
	rep.Samples["certified_ratio_inputs"] = int64(len(ratios))
	rep.e2e("certified_ratio_mean", mean(ratios))
	return nil
}

func (w *solveWorkload) ops() int { return len(w.replay) }

func (w *solveWorkload) client(i int) int { return i * clients / len(w.replay) }

func (w *solveWorkload) newState() (func(t *tracer, i int) ([]byte, error), error) {
	return w.replayOp(w)
}

func (w *solveWorkload) wire(i int) []byte {
	if bodies := w.got.bodies[w.replay[i]]; len(bodies) > 0 {
		return bodies[0]
	}
	return nil
}

func snippet(b []byte) string {
	const n = 200
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// subSeed derives an independent seed from the workload seed and a path
// of integers (splitmix64 finalizer over each step).
func subSeed(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 * (uint64(p) + 1)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x &^ (1 << 63)) // non-negative
}

// --- inline-hot ------------------------------------------------------

// inlinePairs are the mix of inline-hot and scenario-cold; inline-hot
// uses each preset's default size.
var inlinePairs = []pair{
	{scenario: "capacitated-tree", algo: "arbitrary"},
	{scenario: "videowall-line", algo: "line-unit"},
	{scenario: "caterpillar-backbone", algo: "tree-unit"},
	{scenario: "binary-fanout", algo: "dist-unit"},
}

const (
	inlinePerPair = 12  // distinct problems per pair
	inlineZipfS   = 1.1 // Zipf exponent of the request draw
	inlineSeqLen  = 1 << 16
	inlineReplay  = 300 // replayed ops per client
)

func runInlineHot(cfg config, rep *report) error {
	w := &solveWorkload{wrap: true, refs: true, replayOp: inlineReplayOp, ref: refPlan{every: 8, reps: 1}}
	for k, pr := range inlinePairs {
		s, ok := scenario.Get(pr.scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", pr.scenario)
		}
		for j := 0; j < inlinePerPair; j++ {
			p, err := s.Generate(pr.params, subSeed(cfg.seed, 1, k, j))
			if err != nil {
				return err
			}
			in, err := newSolveInput(service.Request{Algo: pr.algo, Problem: p},
				func() (*instance.Problem, error) { return p, nil })
			if err != nil {
				return err
			}
			w.warm = append(w.warm, len(w.inputs))
			w.ratio = append(w.ratio, len(w.inputs))
			w.inputs = append(w.inputs, in)
		}
	}
	// Zipf rank r is problem r/4 of pair r%4: every pair has one of the
	// four hottest problems, so the pair mix does not change with the seed.
	perm := make([]int, len(w.inputs))
	for r := range perm {
		perm[r] = (r%len(inlinePairs))*inlinePerPair + r/len(inlinePairs)
	}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(subSeed(cfg.seed, 3, c)))
		z := rand.NewZipf(rng, inlineZipfS, 1, uint64(len(w.inputs)-1))
		seq := make([]int, inlineSeqLen)
		for i := range seq {
			seq[i] = perm[z.Uint64()]
		}
		w.seqs = append(w.seqs, seq)
		w.replay = append(w.replay, seq[:inlineReplay]...)
	}
	return runSolve(cfg, rep, w)
}

// serverConfig mirrors cmd/schedserver's defaults, so the in-process
// engine behaves like the server the wire run measured.
func serverConfig() service.Config {
	return service.Config{
		CompiledCacheSize: 64,
		ResultCacheSize:   512,
		MaxDemands:        20000,
		TraceSample:       0.01,
		SlowThreshold:     500 * time.Millisecond,
		RecorderRequests:  128,
	}
}

// inlineReplayOp replays an inline-hot op: decode the body, Engine.Solve
// on a memo hit, encode the reply. The state's engine is warmed with
// every input first, as the server was.
func inlineReplayOp(w *solveWorkload) (func(t *tracer, i int) ([]byte, error), error) {
	engine := service.New(serverConfig())
	ctx := context.Background()
	for _, in := range w.warm {
		req := w.inputs[in].req
		if _, err := engine.Solve(ctx, &req); err != nil {
			return nil, fmt.Errorf("warm the replay engine: %w", err)
		}
	}
	return func(t *tracer, i int) ([]byte, error) {
		in := &w.inputs[w.replay[i]]
		var req service.Request
		if err := t.call("instance.decode", func() error { return json.Unmarshal(in.http.body, &req) }); err != nil {
			return nil, err
		}
		var resp *service.Response
		if err := t.call("service.solve_hit", func() (err error) {
			resp, err = engine.Solve(ctx, &req)
			return err
		}); err != nil {
			return nil, err
		}
		return encodeReply(t, resp)
	}, nil
}

// encodeReply encodes v the way the server writes replies.
func encodeReply(t *tracer, v any) ([]byte, error) {
	var buf bytes.Buffer
	err := t.call("service.encode", func() error {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		return enc.Encode(v)
	})
	return buf.Bytes(), err
}

// --- scenario-cold ---------------------------------------------------

// coldPairs are sized so that each pair costs the server about the same
// time per request.
var coldPairs = []pair{
	{scenario: "capacitated-tree", algo: "arbitrary", params: scenario.Params{Demands: 400}},
	{scenario: "videowall-line", algo: "line-unit", params: scenario.Params{Demands: 250}},
	{scenario: "caterpillar-backbone", algo: "tree-unit", params: scenario.Params{Demands: 800}},
	{scenario: "binary-fanout", algo: "dist-unit", params: scenario.Params{Demands: 90}},
}

const (
	coldWarmPerPair = 2
	coldOpsPerSec   = 1000 // per client: input list length per second of window
	coldRatio       = 64   // certified-ratio inputs per client
	coldReplay      = 48   // replayed ops per client
)

func runScenarioCold(cfg config, rep *report) error {
	w := &solveWorkload{replayOp: coldReplayOp, ref: refPlan{every: 10, reps: 10}}
	add := func(pr pair, seed int64) error {
		s, ok := scenario.Get(pr.scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", pr.scenario)
		}
		req := service.Request{Algo: pr.algo, Scenario: pr.scenario, ScenarioSeed: seed, ScenarioParams: pr.params}
		in, err := newSolveInput(req, func() (*instance.Problem, error) { return s.Generate(pr.params, seed) })
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
		return nil
	}
	for k, pr := range coldPairs {
		for j := 0; j < coldWarmPerPair; j++ {
			w.warm = append(w.warm, len(w.inputs))
			if err := add(pr, subSeed(cfg.seed, 4, k, j)); err != nil {
				return err
			}
		}
	}
	n := max(int(cfg.seconds*coldOpsPerSec), coldReplay)
	for c := 0; c < clients; c++ {
		seq := make([]int, n)
		for i := range seq {
			seq[i] = len(w.inputs)
			// Every request names a new scenario_seed: it misses both caches.
			if err := add(coldPairs[(i+c)%len(coldPairs)], subSeed(cfg.seed, 5, c, i)); err != nil {
				return err
			}
		}
		w.seqs = append(w.seqs, seq)
		w.ratio = append(w.ratio, seq[:coldRatio]...)
		w.replay = append(w.replay, seq[:coldReplay]...)
	}
	return runSolve(cfg, rep, w)
}

// coldReplayOp replays a scenario-cold op one layer at a time: decode,
// generate, compile, solve, verify, encode.
func coldReplayOp(w *solveWorkload) (func(t *tracer, i int) ([]byte, error), error) {
	return func(t *tracer, i int) ([]byte, error) {
		in := &w.inputs[w.replay[i]]
		var req service.Request
		if err := t.call("instance.decode", func() error { return json.Unmarshal(in.http.body, &req) }); err != nil {
			return nil, err
		}
		s, ok := scenario.Get(req.Scenario)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		var p *instance.Problem
		if err := t.call("scenario.generate", func() (err error) {
			p, err = s.Generate(s.Effective(req.ScenarioParams), req.ScenarioSeed)
			return err
		}); err != nil {
			return nil, err
		}
		opts := core.Options{Epsilon: req.Epsilon, Seed: req.Seed, FixedRounds: req.FixedRounds}
		res, dres, err := compileAndSolve(t, p, req.Algo, opts)
		if err != nil {
			return nil, err
		}
		if err := t.call("verify.solution", func() error { return verify.Solution(p, res.Selected) }); err != nil {
			return nil, err
		}
		return encodeReply(t, solveResponse(&req, len(p.Demands), res, dres))
	}, nil
}

// centralSolvers are the centralized algorithms the workloads run.
var centralSolvers = map[string]func(*core.Compiled, core.Options) (*core.Result, error){
	"arbitrary": (*core.Compiled).Arbitrary,
	"line-unit": (*core.Compiled).LineUnit,
	"tree-unit": (*core.Compiled).TreeUnit,
}

// compileAndSolve is the model.build span (core.Compile + Model) and
// the core.solve or dist.solve span of one op.
func compileAndSolve(t *tracer, p *instance.Problem, algo string, opts core.Options) (*core.Result, *core.DistributedResult, error) {
	var c *core.Compiled
	if err := t.call("model.build", func() (err error) {
		if c, err = core.Compile(p, 0); err != nil {
			return err
		}
		_, err = c.Model()
		return err
	}); err != nil {
		return nil, nil, err
	}
	if algo == "dist-unit" {
		var dres *core.DistributedResult
		if err := t.call("dist.solve", func() (err error) {
			dres, err = c.DistributedUnit(opts)
			return err
		}); err != nil {
			return nil, nil, err
		}
		t.count("dist.rounds", float64(dres.Net.Rounds))
		t.count("dist.messages", float64(dres.Net.Messages))
		return dres.Result, dres, nil
	}
	solve, ok := centralSolvers[algo]
	if !ok {
		return nil, nil, fmt.Errorf("no solver for %q", algo)
	}
	var res *core.Result
	err := t.call("core.solve", func() (err error) {
		res, err = solve(c, opts)
		return err
	})
	return res, nil, err
}

// solveResponse assembles the reply the service builds for a solved
// request.
func solveResponse(req *service.Request, demands int, res *core.Result, dres *core.DistributedResult) *service.Response {
	resp := &service.Response{
		Algorithm:      res.Name,
		Scenario:       req.Scenario,
		Profit:         res.Profit,
		DualUpperBound: res.DualUB,
		CertifiedRatio: res.CertifiedRatio,
		Bound:          res.Bound,
		Lambda:         res.Lambda,
		Demands:        demands,
		Scheduled:      len(res.Selected),
		Selected:       res.Selected,
	}
	if resp.Selected == nil {
		resp.Selected = []instance.Inst{}
	}
	if dres != nil {
		resp.Rounds = dres.Net.Rounds
		resp.Messages = dres.Net.Messages
		resp.Aggregations = dres.Net.Aggregations
		resp.PayloadEntries = dres.Net.Entries
	}
	return resp
}
