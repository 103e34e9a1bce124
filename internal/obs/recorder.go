package obs

// The flight recorder: a lock-sharded, fixed-size, always-on store of
// per-request observability for the serving tier, in the spirit of
// x/net/trace but dependency-free like the rest of this package.
//
// A Recorder holds three things:
//
//   - an active table of in-flight requests (id, endpoint, age, the
//     phase each request is in right now), for "what is the server
//     doing at this instant";
//   - fixed-size ring buffers of completed request records in three
//     classes — recent (every completion), slow (duration above the
//     configured threshold) and error — so the interesting requests
//     survive long after the recent ring has churned past them;
//   - a structured event log (cache evictions, coalesce outcomes,
//     session lifecycle, rejections) ordered by a global sequence.
//
// Memory is bounded by construction: rings never grow, the active
// table holds only in-flight requests, and request handles are pooled.
// All methods are safe for concurrent use; reads merge the shards and
// order by the global sequence, so concurrent writers produce one
// deterministic timeline.
//
// Span trees ride on top: when sampling is enabled (Sample > 0) every
// request carries a *Trace that instrumented code (core.Options.
// Telemetry) fills with its phase timeline. The sample rate gates only
// what the recent ring retains — slow and errored requests always keep
// their full timeline. Sample == 0 is the zero-overhead mode: no Trace
// is ever allocated and no span is recorded, leaving only the constant
// per-request cost of the record itself.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is the coarse request state shown for in-flight requests.
type Phase int32

const (
	PhaseStart Phase = iota
	PhaseValidate
	PhaseCacheCheck
	PhaseFlightWait // waiting on another request's identical in-flight solve
	PhaseQueued     // waiting for a worker-pool slot
	PhaseCompile
	PhaseSolve
	PhaseVerify
	PhaseRespond
	PhaseSession // applying session events / resolving
)

var phaseNames = [...]string{
	PhaseStart:      "start",
	PhaseValidate:   "validate",
	PhaseCacheCheck: "cache_check",
	PhaseFlightWait: "flight_wait",
	PhaseQueued:     "queued",
	PhaseCompile:    "compile",
	PhaseSolve:      "solve",
	PhaseVerify:     "verify",
	PhaseRespond:    "respond",
	PhaseSession:    "session",
}

// String returns the wire name of the phase.
func (p Phase) String() string {
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// ReqRecord is one completed request: the flight-recorder line written
// into the class rings, handed to the OnRecord sink (the NDJSON request
// log), and served by /debug/requests. Seq is the global recorder
// sequence — merged views sort by it, so ordering is deterministic even
// with concurrent writers.
type ReqRecord struct {
	Seq      uint64 `json:"seq"`
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Algo     string `json:"algo,omitempty"`
	// Outcome is how the request was served: result_hit, solved,
	// coalesced, session_resolve, error...
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`
	// LinkedTo names the singleflight leader whose solve served this
	// request (coalesced followers only) — the leader's record carries
	// the span timeline both requests share.
	LinkedTo    string `json:"linked_to,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
	// Trace is the span timeline, present when the request was sampled
	// (recent class) or always for slow/error-class records when
	// sampling is enabled at all.
	Trace *TraceExport `json:"trace,omitempty"`
}

// ActiveReq is one in-flight request as listed by /debug/requests.
type ActiveReq struct {
	ID          string `json:"id"`
	Endpoint    string `json:"endpoint"`
	Algo        string `json:"algo,omitempty"`
	Phase       string `json:"phase"`
	StartUnixNs int64  `json:"start_unix_ns"`
	AgeNs       int64  `json:"age_ns"`
	Traced      bool   `json:"traced"`
}

// Event is one structured entry of the recorder's event log: evictions,
// coalesce outcomes, session lifecycle, rejections. The same schema
// backs the optional per-request NDJSON log (type "request" lines carry
// the ReqRecord fields instead).
type Event struct {
	Seq        uint64 `json:"seq"`
	TimeUnixNs int64  `json:"ts_unix_ns"`
	Type       string `json:"type"`
	ID         string `json:"id,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// Completed-record class names.
const (
	ClassRecent = "recent"
	ClassSlow   = "slow"
	ClassError  = "error"
)

// RecorderConfig sizes a Recorder. Zero fields take the listed defaults.
type RecorderConfig struct {
	// PerClass is the total ring capacity of each completed class
	// (default 128). Capacity is divided across shards, rounding up.
	PerClass int
	// Events is the total event-log capacity (default 256).
	Events int
	// Shards is the lock-shard count; rounded up to a power of two
	// (default 8).
	Shards int
	// SlowNs classifies completions slower than this into the slow ring
	// (default 500ms).
	SlowNs int64
	// Sample is the probability that an ordinary completed request
	// retains its span timeline in the recent ring. Any value > 0
	// enables span recording for every request (slow and errored
	// completions always retain theirs); 0 disables span trees entirely
	// — the byte-identical zero-overhead mode.
	Sample float64
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.PerClass <= 0 {
		c.PerClass = 128
	}
	if c.Events <= 0 {
		c.Events = 256
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.SlowNs <= 0 {
		c.SlowNs = (500 * time.Millisecond).Nanoseconds()
	}
	p := 1
	for p < c.Shards {
		p <<= 1
	}
	c.Shards = p
	return c
}

// ring is a fixed-capacity overwrite buffer of ReqRecords.
type ring struct {
	buf   []ReqRecord
	next  int
	total uint64
}

func (r *ring) push(rec ReqRecord) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

func (r *ring) appendAll(out []ReqRecord) []ReqRecord {
	n := len(r.buf)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)])
	}
	return out
}

// eventRing is the Event analogue of ring.
type eventRing struct {
	buf   []Event
	next  int
	total uint64
}

func (r *eventRing) push(ev Event) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

func (r *eventRing) appendAll(out []Event) []Event {
	n := len(r.buf)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)])
	}
	return out
}

type recorderShard struct {
	mu sync.Mutex
	// active is a swap-remove slice, not a map: Begin appends and stores
	// the index in the handle, Finish swap-removes by it — the per-request
	// hot path never hashes the id. Debug reads scan; they are rare.
	active []*Req
	recent ring
	slow   ring
	errs   ring
	events eventRing
	_      [24]byte // keep shards off one cache line
}

// Recorder is the flight recorder. One per serving engine; safe for
// concurrent use.
type Recorder struct {
	cfg    RecorderConfig
	shards []recorderShard
	mask   uint64
	seq    atomic.Uint64 // global record/event order
	idSeq  atomic.Uint64 // generated request ids
	dice   atomic.Uint64 // splitmix64 state for retention sampling
	pool   sync.Pool     // *Req

	// OnRecord, when non-nil, observes every completed request record
	// (the structured request log). Set before serving traffic; called
	// outside all recorder locks, one call per completion, records with
	// the retention-resolved Trace attached.
	OnRecord func(*ReqRecord)
}

// NewRecorder builds a recorder from cfg.
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:    cfg,
		shards: make([]recorderShard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	perClass := (cfg.PerClass + cfg.Shards - 1) / cfg.Shards
	perEvents := (cfg.Events + cfg.Shards - 1) / cfg.Shards
	for i := range r.shards {
		s := &r.shards[i]
		s.active = make([]*Req, 0, 8)
		s.recent.buf = make([]ReqRecord, perClass)
		s.slow.buf = make([]ReqRecord, perClass)
		s.errs.buf = make([]ReqRecord, perClass)
		s.events.buf = make([]Event, perEvents)
	}
	r.pool.New = func() any { return new(Req) }
	return r
}

// SlowNs reports the slow-class threshold, 0 on a nil recorder.
func (r *Recorder) SlowNs() int64 {
	if r == nil {
		return 0
	}
	return r.cfg.SlowNs
}

// Sampling reports whether span trees are being recorded at all;
// a nil recorder samples nothing.
func (r *Recorder) Sampling() bool {
	if r == nil {
		return false
	}
	return r.cfg.Sample > 0
}

// NextID mints a recorder-scoped request id ("r-N") for requests that
// arrived without one. One buffer, one allocation — this runs on the
// per-request hot path for every API caller that sends no id.
//
//schedlint:nonnil ids are meaningless without recorder state; the sole call site (http.go) checks e.rec != nil first
func (r *Recorder) NextID() string {
	n := r.idSeq.Add(1)
	var b [22]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	i -= 2
	b[i], b[i+1] = 'r', '-'
	return string(b[i:])
}

// splitmix64 advances the retention-sampling stream: deterministic for
// a fresh recorder, independent of request timing.
//
//schedlint:nonnil only reachable from BeginAt past its own nil guard
func (r *Recorder) rollDice() float64 {
	z := r.dice.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Req is the handle of one in-flight request. The owning goroutine
// calls SetPhase/SetAlgo/SetOutcome/Link and finally Finish; the debug
// listing reads the atomic fields concurrently.
type Req struct {
	rec      *Recorder
	shard    *recorderShard // the shard holding this handle's active slot
	slot     int            // index in shard.active, maintained by swap-remove
	id       string
	endpoint string
	start    time.Time
	seq      uint64
	sampled  bool   // retain spans in the recent ring
	trace    *Trace // non-nil when sampling is enabled

	phase   atomic.Int32
	algo    atomic.Pointer[string]
	outcome atomic.Pointer[string]
	linked  atomic.Pointer[string]
}

// Begin registers an in-flight request under id (minted via NextID when
// empty) and returns its handle. Nil-safe: a nil recorder returns a nil
// handle, and every Req method tolerates a nil receiver, so serving
// code instruments unconditionally.
func (r *Recorder) Begin(id, endpoint string) *Req {
	if r == nil {
		return nil
	}
	return r.BeginAt(id, endpoint, time.Now())
}

// BeginAt is Begin with the caller's own timestamp — serving code that
// already read the clock for its latency measurement passes it along
// instead of paying a second time.Now on the per-request hot path.
func (r *Recorder) BeginAt(id, endpoint string, start time.Time) *Req {
	if r == nil {
		return nil
	}
	if id == "" {
		id = r.NextID()
	}
	rq := r.pool.Get().(*Req)
	rq.rec = r
	rq.id = id
	rq.endpoint = endpoint
	rq.start = start
	rq.seq = r.seq.Add(1)
	rq.phase.Store(int32(PhaseStart))
	rq.algo.Store(nil)
	rq.outcome.Store(nil)
	rq.linked.Store(nil)
	if r.cfg.Sample > 0 {
		rq.trace = NewTrace()
		rq.sampled = r.cfg.Sample >= 1 || r.rollDice() < r.cfg.Sample
	} else {
		rq.trace = nil
		rq.sampled = false
	}
	// Shard by sequence, not id: spreads writers evenly with no hashing,
	// and merged views re-sort by Seq anyway.
	s := &r.shards[rq.seq&r.mask]
	rq.shard = s
	s.mu.Lock()
	rq.slot = len(s.active)
	s.active = append(s.active, rq)
	s.mu.Unlock()
	return rq
}

// ID returns the request id ("" on a nil handle).
func (q *Req) ID() string {
	if q == nil {
		return ""
	}
	return q.id
}

// Trace returns the request's span tree, nil when sampling is off (or
// on a nil handle) — callers pass it straight to core.Options.Telemetry
// and rely on the Trace nil-receiver contract.
func (q *Req) Trace() *Trace {
	if q == nil {
		return nil
	}
	return q.trace
}

// SetPhase moves the request's coarse phase (shown for active requests).
func (q *Req) SetPhase(p Phase) {
	if q == nil {
		return
	}
	q.phase.Store(int32(p))
}

// SetAlgo records the algorithm the request dispatched to.
func (q *Req) SetAlgo(algo string) {
	if q == nil || algo == "" {
		return
	}
	q.algo.Store(&algo)
}

// SetOutcome records how the request was served (pass package-level
// constants; the pointer is stored as-is).
func (q *Req) SetOutcome(outcome string) {
	if q == nil || outcome == "" {
		return
	}
	q.outcome.Store(&outcome)
}

// Link marks the request a singleflight follower of leaderID.
func (q *Req) Link(leaderID string) {
	if q == nil || leaderID == "" {
		return
	}
	q.linked.Store(&leaderID)
}

func loadStr(p *atomic.Pointer[string]) string {
	if s := p.Load(); s != nil {
		return *s
	}
	return ""
}

// Finish completes the request: removes it from the active table,
// classifies the record into the rings (recent always; slow when over
// the threshold; error when errMsg is non-empty), applies span
// retention, and feeds the OnRecord sink. durNs <= 0 measures from the
// handle's own start. The handle must not be used after Finish returns,
// not even for ID: it goes back to a pool and may already belong to
// another request. Read anything still needed (e.g. the id) first.
func (q *Req) Finish(durNs int64, errMsg string) {
	if q == nil {
		return
	}
	r := q.rec
	if durNs <= 0 {
		durNs = time.Since(q.start).Nanoseconds()
	}
	rec := ReqRecord{
		Seq:         q.seq,
		ID:          q.id,
		Endpoint:    q.endpoint,
		Algo:        loadStr(&q.algo),
		Outcome:     loadStr(&q.outcome),
		Error:       errMsg,
		LinkedTo:    loadStr(&q.linked),
		StartUnixNs: q.start.UnixNano(),
		DurNs:       durNs,
	}
	var full *TraceExport
	if q.trace != nil {
		exp := q.trace.Export()
		full = &exp
	}
	slow := durNs > r.cfg.SlowNs
	isErr := errMsg != ""
	sampled := q.sampled

	s := q.shard
	s.mu.Lock()
	// Swap-remove this handle's active slot; fix the moved handle's index.
	if last := len(s.active) - 1; q.slot <= last && s.active[q.slot] == q {
		moved := s.active[last]
		s.active[q.slot] = moved
		moved.slot = q.slot
		s.active[last] = nil
		s.active = s.active[:last]
	}
	if sampled {
		rec.Trace = full
	} else {
		rec.Trace = nil
	}
	s.recent.push(rec)
	rec.Trace = full // slow/error always keep the timeline
	if slow {
		s.slow.push(rec)
	}
	if isErr {
		s.errs.push(rec)
	}
	s.mu.Unlock()

	if sink := r.OnRecord; sink != nil {
		sink(&rec)
	}

	q.trace = nil
	q.rec = nil
	q.shard = nil
	r.pool.Put(q)
}

// Event appends one entry to the structured event log.
func (r *Recorder) Event(typ, id, detail string) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	ev := Event{
		Seq:        seq,
		TimeUnixNs: time.Now().UnixNano(),
		Type:       typ,
		ID:         id,
		Detail:     detail,
	}
	s := &r.shards[seq&r.mask] // spread writers; merged views re-sort by Seq
	s.mu.Lock()
	s.events.push(ev)
	s.mu.Unlock()
}

// Active lists in-flight requests, oldest first (ties broken by id).
func (r *Recorder) Active() []ActiveReq {
	if r == nil {
		return nil
	}
	now := time.Now()
	var out []ActiveReq
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, q := range s.active {
			if q == nil {
				continue
			}
			out = append(out, ActiveReq{
				ID:          q.id,
				Endpoint:    q.endpoint,
				Algo:        loadStr(&q.algo),
				Phase:       Phase(q.phase.Load()).String(),
				StartUnixNs: q.start.UnixNano(),
				AgeNs:       now.Sub(q.start).Nanoseconds(),
				Traced:      q.trace != nil,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNs != out[j].StartUnixNs {
			return out[i].StartUnixNs < out[j].StartUnixNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ActiveCount reports the number of in-flight requests.
func (r *Recorder) ActiveCount() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.active)
		s.mu.Unlock()
	}
	return n
}

// Completed returns the retained records of one class (ClassRecent,
// ClassSlow, ClassError), newest first, at most max (0 = all retained).
// Listings strip span timelines — Lookup serves the full record.
func (r *Recorder) Completed(class string, max int) []ReqRecord {
	recs := r.completed(class)
	for i := range recs {
		recs[i].Trace = nil
	}
	if max > 0 && len(recs) > max {
		recs = recs[:max]
	}
	return recs
}

func (r *Recorder) completed(class string) []ReqRecord {
	if r == nil {
		return nil
	}
	var out []ReqRecord
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		switch class {
		case ClassRecent:
			out = s.recent.appendAll(out)
		case ClassSlow:
			out = s.slow.appendAll(out)
		case ClassError:
			out = s.errs.appendAll(out)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Lookup finds a completed request by id, with its span timeline when
// one was retained. Classes are searched error → slow → recent, so the
// most detailed retained copy wins; within a class the newest record
// for the id wins.
func (r *Recorder) Lookup(id string) (ReqRecord, bool) {
	if r == nil {
		return ReqRecord{}, false
	}
	var best ReqRecord
	found := false
	for _, class := range [...]string{ClassError, ClassSlow, ClassRecent} {
		for _, rec := range r.completed(class) {
			if rec.ID == id {
				// Prefer a copy that kept its timeline, then the newest.
				if !found || (best.Trace == nil && rec.Trace != nil) {
					best, found = rec, true
				}
			}
		}
		if found && best.Trace != nil {
			return best, true
		}
	}
	return best, found
}

// Events returns the retained event log, newest first, at most max
// (0 = all retained).
func (r *Recorder) Events(max int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = s.events.appendAll(out)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
