package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The traced run replays a workload's inputs in-process, one call per
// layer, from a single goroutine. It runs three passes over the same
// ops: untraced and traced interleaved op by op on two independent
// states (the difference is the tracing overhead), then a third pass
// that brackets every layer call with runtime.ReadMemStats to count its
// allocations. The stop-the-world reads stay out of the timed passes.

type traceMode int

const (
	modeOff traceMode = iota
	modeTime
	modeAllocs
)

// span is one call into a layer, or an op's root span (Parent -1).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mode   traceMode
	t0     time.Time
	spans  []span
	root   int // index of the current op's root span
	op     int
	allocs map[string]uint64
	counts map[string]float64
	ms     runtime.MemStats
}

func newTracer(mode traceMode) *tracer {
	return &tracer{mode: mode, t0: time.Now(), allocs: map[string]uint64{}, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// call runs fn as one call into the named layer.
func (t *tracer) call(name string, fn func() error) error {
	switch t.mode {
	case modeTime:
		s := span{ID: len(t.spans), Parent: t.root, Op: t.op, Name: name}
		t.spans = append(t.spans, s)
		t.spans[s.ID].Start = t.now()
		err := fn()
		t.spans[s.ID].End = t.now()
		return err
	case modeAllocs:
		runtime.ReadMemStats(&t.ms)
		before := t.ms.Mallocs
		err := fn()
		runtime.ReadMemStats(&t.ms)
		t.allocs[name] += t.ms.Mallocs - before
		return err
	default:
		return fn()
	}
}

// count adds v to a per-layer counter (e.g. dist.rounds).
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// beginOp opens op i's root span; endOp closes it.
func (t *tracer) beginOp(i int) {
	t.op = i
	if t.mode == modeTime {
		t.root = len(t.spans)
		t.spans = append(t.spans, span{ID: t.root, Parent: -1, Op: i, Name: "op", Start: t.now()})
	}
}

func (t *tracer) endOp() {
	if t.mode == modeTime {
		t.spans[t.root].End = t.now()
	}
}

// selfNs is each span name's total self time: its spans' durations minus
// the parts their child spans cover. Children of one span are
// sequential, so their durations do not overlap.
func selfNs(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// replayer is a workload's in-process replay: ops() ops, each run on a
// state from newState. An op makes its layer calls through the tracer
// and returns the reply bytes the wire would carry, or nil when the
// workload has no wire reply; wire returns the reply that came over the
// wire for the same op, and client the wire client that sent it.
type replayer interface {
	ops() int
	client(i int) int
	newState() (func(t *tracer, i int) ([]byte, error), error)
	wire(i int) []byte
}

// traceReplay runs the traced passes, cross-checks every replayed reply
// against the wire, writes the span file and fills every per-layer
// metric the workload did not set itself. Layer times, allocations and
// counts are means per replayed op. Each replayed op counts as attempted,
// and as failed when its reply differs from the wire's.
func traceReplay(cfg config, rep *report, r replayer) error {
	n := r.ops()
	rep.Attempted += int64(2 * n)
	plain, err := r.newState()
	if err != nil {
		return err
	}
	traced, err := r.newState()
	if err != nil {
		return err
	}
	off, tt := newTracer(modeOff), newTracer(modeTime)
	var plainNs, tracedNs int64
	var opMs [][]float64 // traced op latencies per wire client
	runPlain := func(i int) error {
		begin := time.Now()
		out, err := plain(off, i)
		plainNs += time.Since(begin).Nanoseconds()
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		crossCheck(rep, r, i, out)
		return nil
	}
	runTraced := func(i int) error {
		tt.beginOp(i)
		out, err := traced(tt, i)
		tt.endOp()
		if err != nil {
			return fmt.Errorf("traced replay op %d: %w", i, err)
		}
		root := tt.spans[tt.root]
		tracedNs += root.End - root.Start
		c := r.client(i)
		for len(opMs) <= c {
			opMs = append(opMs, nil)
		}
		opMs[c] = append(opMs[c], float64(root.End-root.Start)/1e6)
		crossCheck(rep, r, i, out)
		return nil
	}
	// Alternate which of the pair runs first, so neither inherits warm
	// caches from the other more often.
	for i := 0; i < n; i++ {
		first, second := runPlain, runTraced
		if i%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(i); err != nil {
			return err
		}
		if err := second(i); err != nil {
			return err
		}
	}

	counting, err := r.newState()
	if err != nil {
		return err
	}
	at := newTracer(modeAllocs)
	for i := 0; i < n; i++ {
		at.beginOp(i)
		if _, err := counting(at, i); err != nil {
			return fmt.Errorf("alloc-counting replay op %d: %w", i, err)
		}
	}

	rep.Samples["replay_ops"] = int64(n)
	rep.Samples["replay_spans"] = int64(len(tt.spans))
	rep.Layers["trace.overhead_share"] = metric{float64(tracedNs)/float64(plainNs) - 1, "share"}
	if _, ok := rep.Layers["service.transport_ms"]; !ok {
		// Taken per client, so clients whose ops differ compare like
		// with like.
		var transport []float64
		for c, ms := range opMs {
			sort.Float64s(ms)
			transport = append(transport, rep.WireP50[c]-quantile(ms, 0.5))
		}
		rep.Layers["service.transport_ms"] = metric{mean(transport), "ms"}
	}

	layers, err := perLayer()
	if err != nil {
		return err
	}
	self := selfNs(tt.spans)
	for _, l := range layers {
		if _, ok := rep.Layers[l.Name]; ok {
			continue
		}
		var v float64
		switch {
		case strings.HasSuffix(l.Name, "_ms"):
			v = float64(self[strings.TrimSuffix(l.Name, "_ms")]) / 1e6
		case strings.HasSuffix(l.Name, "_allocs"):
			v = float64(at.allocs[strings.TrimSuffix(l.Name, "_allocs")])
		default:
			v = tt.counts[l.Name]
		}
		rep.Layers[l.Name] = metric{v / float64(n), l.Unit}
	}
	return writeSpans(cfg, rep, tt.spans)
}

// crossCheck fails the op when the in-process reply differs from the
// wire's: the replay must have run the same computation.
func crossCheck(rep *report, r replayer, i int, out []byte) {
	if out == nil {
		return
	}
	if w := r.wire(i); !bytes.Equal(out, w) {
		rep.fail(1, "replay op %d: in-process reply (%d bytes) differs from the wire reply (%d bytes)", i, len(out), len(w))
	}
}

func writeSpans(cfg config, rep *report, spans []span) error {
	if cfg.out == "" {
		return nil
	}
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Machine  machine `json:"machine"`
		Spans    []span  `json:"spans"`
	}{cfg.workload, rep.Machine, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	rep.SpanFile = path
	return os.WriteFile(path, data, 0o644)
}
