package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRecorderClassesAndBounds: the three completed classes retain what
// they should and never grow past their configured capacity.
func TestRecorderClassesAndBounds(t *testing.T) {
	r := NewRecorder(RecorderConfig{PerClass: 4, Events: 8, Shards: 1, SlowNs: int64(10 * time.Millisecond)})

	for i := 0; i < 10; i++ {
		rq := r.Begin(fmt.Sprintf("fast-%d", i), "solve")
		rq.SetOutcome("solved")
		rq.Finish(int64(time.Millisecond), "")
	}
	slow := r.Begin("slow-1", "solve")
	slow.Finish(int64(20*time.Millisecond), "")
	bad := r.Begin("bad-1", "solve")
	bad.Finish(int64(time.Millisecond), "boom")

	recent := r.Completed(ClassRecent, 0)
	if len(recent) != 4 {
		t.Fatalf("recent retained %d records, capacity is 4", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i-1].Seq <= recent[i].Seq {
			t.Fatalf("recent not newest-first: seq %d before %d", recent[i-1].Seq, recent[i].Seq)
		}
	}
	if got := r.Completed(ClassSlow, 0); len(got) != 1 || got[0].ID != "slow-1" {
		t.Fatalf("slow class = %+v, want exactly slow-1", got)
	}
	if got := r.Completed(ClassError, 0); len(got) != 1 || got[0].ID != "bad-1" || got[0].Error != "boom" {
		t.Fatalf("error class = %+v, want exactly bad-1", got)
	}
	if n := r.ActiveCount(); n != 0 {
		t.Fatalf("%d requests still active after Finish", n)
	}

	// Events are bounded the same way.
	for i := 0; i < 40; i++ {
		r.Event("evict_result", "", fmt.Sprintf("key-%d", i))
	}
	evs := r.Events(0)
	if len(evs) != 8 {
		t.Fatalf("event log retained %d entries, capacity is 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq <= evs[i].Seq {
			t.Fatalf("events not newest-first: seq %d before %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if len(r.Events(3)) != 3 {
		t.Fatalf("Events(max) did not truncate")
	}
}

// TestRecorderSampleZeroAllocatesNoTrace: the byte-identical mode — no
// request carries a span tree.
func TestRecorderSampleZeroAllocatesNoTrace(t *testing.T) {
	r := NewRecorder(RecorderConfig{Shards: 1})
	if r.Sampling() {
		t.Fatal("Sample=0 recorder reports sampling on")
	}
	rq := r.Begin("a", "solve")
	if rq.Trace() != nil {
		t.Fatal("Sample=0 request carries a Trace")
	}
	rq.Finish(int64(time.Hour), "") // even slow-class records get no trace: none exists
	rec, ok := r.Lookup("a")
	if !ok {
		t.Fatal("record not retained")
	}
	if rec.Trace != nil {
		t.Fatal("Sample=0 record retained a span timeline")
	}
}

// TestRecorderSlowAlwaysKeepsTimeline: with any sampling enabled, slow
// and errored requests retain their span tree even when the dice said
// no for the recent ring.
func TestRecorderSlowAlwaysKeepsTimeline(t *testing.T) {
	// Sample small enough that the recent-ring dice will practically
	// never retain, but > 0 so traces are recorded at all.
	r := NewRecorder(RecorderConfig{Shards: 1, Sample: 1e-12, SlowNs: int64(10 * time.Millisecond)})

	slow := r.Begin("slow-req", "solve")
	tr := slow.Trace()
	if tr == nil {
		t.Fatal("sampling enabled but request has no Trace")
	}
	id := tr.Begin("solve")
	tr.End(id)
	slow.Finish(int64(time.Second), "")

	rec, ok := r.Lookup("slow-req")
	if !ok || rec.Trace == nil {
		t.Fatalf("slow request lost its timeline: ok=%v rec=%+v", ok, rec)
	}
	if len(rec.Trace.Spans) != 1 || rec.Trace.Spans[0].Name != "solve" {
		t.Fatalf("timeline spans = %+v", rec.Trace.Spans)
	}

	bad := r.Begin("bad-req", "solve")
	bad.Finish(int64(time.Millisecond), "boom")
	rec, ok = r.Lookup("bad-req")
	if !ok || rec.Trace == nil {
		t.Fatal("errored request lost its timeline")
	}

	// Listings strip timelines; only Lookup serves them.
	for _, c := range []string{ClassRecent, ClassSlow, ClassError} {
		for _, rec := range r.Completed(c, 0) {
			if rec.Trace != nil {
				t.Fatalf("class %s listing leaked a span timeline", c)
			}
		}
	}
}

// TestRecorderSampleOneRetainsEverywhere: full tracing retains the
// timeline even for ordinary fast requests.
func TestRecorderSampleOneRetainsEverywhere(t *testing.T) {
	r := NewRecorder(RecorderConfig{Shards: 1, Sample: 1})
	rq := r.Begin("x", "solve")
	rq.SetAlgo("tree-unit")
	rq.SetOutcome("solved")
	rq.Finish(int64(time.Millisecond), "")
	rec, ok := r.Lookup("x")
	if !ok || rec.Trace == nil {
		t.Fatal("fully sampled fast request lost its timeline")
	}
	if rec.Algo != "tree-unit" || rec.Outcome != "solved" {
		t.Fatalf("record fields = %+v", rec)
	}
}

// TestRecorderActiveAndLink: in-flight requests list with their live
// phase; follower records carry their leader's id.
func TestRecorderActiveAndLink(t *testing.T) {
	r := NewRecorder(RecorderConfig{Shards: 2})
	leader := r.Begin("", "solve") // minted id
	leader.SetPhase(PhaseSolve)
	follower := r.Begin("", "solve")
	follower.SetPhase(PhaseFlightWait)
	follower.Link(leader.ID())

	act := r.Active()
	if len(act) != 2 {
		t.Fatalf("%d active requests, want 2", len(act))
	}
	phases := map[string]string{}
	for _, a := range act {
		phases[a.ID] = a.Phase
	}
	if phases[leader.ID()] != "solve" || phases[follower.ID()] != "flight_wait" {
		t.Fatalf("active phases = %v", phases)
	}
	if leader.ID() == follower.ID() || leader.ID() == "" {
		t.Fatalf("minted ids not unique: %q vs %q", leader.ID(), follower.ID())
	}

	fid := follower.ID()
	follower.Finish(1, "")
	leader.Finish(1, "")
	rec, ok := r.Lookup(fid)
	if !ok || rec.LinkedTo == "" {
		t.Fatalf("follower record lost its leader link: %+v", rec)
	}
}

// TestRecorderConcurrent hammers every mutating surface from many
// goroutines (run under -race in CI) and then asserts the merged views
// are sequence-ordered and memory stayed bounded.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(RecorderConfig{PerClass: 16, Events: 32, Shards: 4, SlowNs: 1, Sample: 0.5})
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rq := r.Begin(fmt.Sprintf("w%d-%d", w, i), "solve")
				rq.SetPhase(PhaseSolve)
				rq.SetAlgo("tree-unit")
				if i%3 == 0 {
					rq.Finish(2, "boom") // error class (and slow: durNs > 1)
				} else {
					rq.Finish(2, "")
				}
				if i%5 == 0 {
					r.Event("coalesce", rq.ID(), "leader=x")
				}
				_ = r.Active()
			}
		}(w)
	}
	wg.Wait()

	if n := r.ActiveCount(); n != 0 {
		t.Fatalf("%d requests leaked in the active table", n)
	}
	for _, c := range []string{ClassRecent, ClassSlow, ClassError} {
		recs := r.Completed(c, 0)
		if len(recs) == 0 || len(recs) > 16 {
			t.Fatalf("class %s retained %d records, capacity 16", c, len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Seq <= recs[i].Seq {
				t.Fatalf("class %s merged view out of order", c)
			}
		}
	}
	evs := r.Events(0)
	if len(evs) == 0 || len(evs) > 32 {
		t.Fatalf("event log retained %d entries, capacity 32", len(evs))
	}
}

// TestRecorderNilSafety: the entire API is a no-op on a nil recorder
// and a nil request handle — serving code instruments unconditionally.
func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	rq := r.Begin("id", "solve")
	if rq != nil {
		t.Fatal("nil recorder returned a live handle")
	}
	rq.SetPhase(PhaseSolve)
	rq.SetAlgo("a")
	rq.SetOutcome("o")
	rq.Link("x")
	if rq.ID() != "" || rq.Trace() != nil {
		t.Fatal("nil handle not inert")
	}
	rq.Finish(1, "")
	r.Event("t", "", "")
	if r.Active() != nil || r.ActiveCount() != 0 || r.Events(0) != nil {
		t.Fatal("nil recorder reads not empty")
	}
	if _, ok := r.Lookup("id"); ok {
		t.Fatal("nil recorder found a record")
	}
	if r.Completed(ClassRecent, 0) != nil {
		t.Fatal("nil recorder listed records")
	}
}

// TestRecorderOnRecordSink: the request-log hook observes every
// completion exactly once, with the retention-resolved trace.
func TestRecorderOnRecordSink(t *testing.T) {
	r := NewRecorder(RecorderConfig{Shards: 1})
	var got []ReqRecord
	r.OnRecord = func(rec *ReqRecord) { got = append(got, *rec) }
	for i := 0; i < 3; i++ {
		rq := r.Begin(fmt.Sprintf("s-%d", i), "solve")
		rq.Finish(1, "")
	}
	if len(got) != 3 {
		t.Fatalf("sink observed %d records, want 3", len(got))
	}
	for i, rec := range got {
		if rec.ID != fmt.Sprintf("s-%d", i) {
			t.Fatalf("sink order: record %d is %q", i, rec.ID)
		}
	}
}
