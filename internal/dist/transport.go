package dist

import "slices"

// Transport routes one synchronous round of batched outboxes to inboxes.
// Implementations must be deterministic: for a fixed topology and outbox
// vector, every inbox must come out identical across calls — the runtime
// relies on this for reproducible Stats and protocol executions.
//
// The in-process LocalTransport is the first implementation; the
// interface is the seam for future ones (sharded in-process delivery,
// socket-backed multi-machine execution) without touching the protocols.
type Transport interface {
	// NumNodes returns the number of processors.
	NumNodes() int
	// Deliver routes one round: out[v] is processor v's payload (nil =
	// silent). For every live processor u it must rebuild in[u] — reusing
	// the backing array via in[u][:0] — appending Message{From: v,
	// Payload: out[v]} for each neighbor v with a non-nil payload, in
	// ascending sender order. Departed processors (live[u] false) receive
	// nothing and contribute nothing to the counts; their inboxes must be
	// emptied so they stop retaining payloads. It returns the number of
	// messages delivered and the total payload entries (per the Sizer
	// protocol) across deliveries.
	Deliver(out []any, in [][]Message, live []bool) (msgs, entries int64)
}

// ShardTransport is the optional Transport extension the worker-pool
// engine (Run with workers ≥ 0) uses to run delivery shard-parallel:
// DeliverShard rebuilds only the inboxes of receivers in [lo, hi),
// writing them into the caller's arena, so W workers can route one round
// concurrently with no shared mutable state. Implementations must
// produce exactly the inboxes Deliver would (same messages, same
// ascending sender order) — the engines' byte-identical-Stats
// equivalence rests on it.
type ShardTransport interface {
	Transport
	// DeliverShard routes one round for receivers u in [lo, hi) only:
	// in[u] is rebuilt inside arena for live receivers and nilled for
	// departed ones; entries of in outside the range are untouched.
	// senders lists the processors with non-nil outboxes in ascending id
	// order (a routing hint — sparse rounds are delivered sender-side in
	// O(Σ deg(senders)) instead of scanning the whole shard's adjacency).
	// Returns the messages and payload entries delivered to the shard.
	DeliverShard(out []any, senders []int32, live []bool, in [][]Message, arena *InboxArena, lo, hi int) (msgs, entries int64)
}

// InboxArena is one shard's reusable inbox storage: every inbox built by
// a DeliverShard call is a window into buf, so a round allocates nothing
// once the arena has grown to the shard's peak round size.
type InboxArena struct {
	buf  []Message
	ends []int32 // per-receiver end offsets (pull) / fill cursors (push)
	cnt  []int32 // per-receiver message counts (push pass 1)
}

// grow readies the per-receiver scratch for a shard of the given size.
func (a *InboxArena) grow(receivers int) {
	if cap(a.ends) < receivers {
		a.ends = make([]int32, receivers)
		a.cnt = make([]int32, receivers)
	}
	a.ends = a.ends[:receivers]
	a.cnt = a.cnt[:receivers]
}

// LocalTransport delivers rounds in-process over a fixed undirected
// communication graph: processor u receives from every neighbor in
// adj[u]. Delivery is one pass over the adjacency lists per round —
// batched, allocation-free after warm-up, no channels.
type LocalTransport struct {
	adj [][]int32
}

// NewLocalTransport builds the in-process transport for a communication
// graph given as adjacency lists over processor ids. The lists are copied
// and sorted so delivery order (and thus the protocols' executions) is
// independent of how the caller ordered neighbors.
func NewLocalTransport(adj [][]int32) *LocalTransport {
	sorted := make([][]int32, len(adj))
	for u, nbrs := range adj {
		s := make([]int32, len(nbrs))
		copy(s, nbrs)
		slices.Sort(s)
		sorted[u] = s
	}
	return &LocalTransport{adj: sorted}
}

// NumNodes returns the number of processors.
func (t *LocalTransport) NumNodes() int { return len(t.adj) }

// Deliver implements Transport.
func (t *LocalTransport) Deliver(out []any, in [][]Message, live []bool) (int64, int64) {
	var msgs, entries int64
	for u := range t.adj {
		if !live[u] {
			in[u] = nil
			continue
		}
		box := in[u][:0]
		for _, v := range t.adj[u] {
			if p := out[v]; p != nil {
				box = append(box, Message{From: v, Payload: p})
				msgs++
				if s, ok := p.(Sizer); ok {
					entries += int64(s.PayloadEntries())
				}
			}
		}
		in[u] = box
	}
	return msgs, entries
}

// DeliverShard implements ShardTransport. It picks between two
// strategies per call, both producing identical inboxes:
//
//   - receiver-side ("pull"): scan every live shard receiver's adjacency
//     list against the outbox vector — O(Σ deg(shard)), right for dense
//     rounds where most processors spoke;
//   - sender-side ("push"): walk only the senders' adjacency lists,
//     counting then placing — O(Σ deg(senders)), the win on sparse
//     rounds (a lone phase-2 announcer among 10^5 silent processors).
//
// The strategy choice is shard-local and invisible in the output, so
// different shards (or runs) choosing differently cannot perturb the
// protocol execution.
func (t *LocalTransport) DeliverShard(out []any, senders []int32, live []bool, in [][]Message, arena *InboxArena, lo, hi int) (msgs, entries int64) {
	shardDeg := 0
	for u := lo; u < hi; u++ {
		if live[u] {
			shardDeg += len(t.adj[u])
		}
	}
	senderDeg := 0
	for _, v := range senders {
		senderDeg += len(t.adj[v])
	}
	arena.grow(hi - lo)
	if 2*senderDeg < shardDeg {
		return t.deliverPush(out, senders, live, in, arena, lo, hi)
	}
	return t.deliverPull(out, live, in, arena, lo, hi)
}

// deliverPull is the receiver-side strategy: the Deliver loop restricted
// to [lo, hi), appending into the arena. Inbox views are attached after
// the pass so buffer growth cannot invalidate them.
func (t *LocalTransport) deliverPull(out []any, live []bool, in [][]Message, arena *InboxArena, lo, hi int) (msgs, entries int64) {
	buf := arena.buf[:0]
	for u := lo; u < hi; u++ {
		if live[u] {
			for _, v := range t.adj[u] {
				if p := out[v]; p != nil {
					buf = append(buf, Message{From: v, Payload: p})
					msgs++
					if s, ok := p.(Sizer); ok {
						entries += int64(s.PayloadEntries())
					}
				}
			}
		}
		arena.ends[u-lo] = int32(len(buf))
	}
	arena.buf = buf
	start := int32(0)
	for u := lo; u < hi; u++ {
		end := arena.ends[u-lo]
		if live[u] {
			in[u] = buf[start:end:end]
		} else {
			in[u] = nil
		}
		start = end
	}
	return msgs, entries
}

// deliverPush is the sender-side strategy: pass 1 counts each shard
// receiver's messages, pass 2 places them at prefix-summed offsets.
// Senders are walked in ascending id order both times, so every inbox
// comes out in ascending sender order — the same order pull produces.
func (t *LocalTransport) deliverPush(out []any, senders []int32, live []bool, in [][]Message, arena *InboxArena, lo, hi int) (msgs, entries int64) {
	cnt := arena.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for _, v := range senders {
		for _, u := range t.adj[v] {
			if int(u) >= lo && int(u) < hi && live[u] {
				cnt[u-int32(lo)]++
			}
		}
	}
	total := int32(0)
	cursor := arena.ends
	for i, c := range cnt {
		cursor[i] = total
		total += c
	}
	if cap(arena.buf) < int(total) {
		arena.buf = make([]Message, total, total+total/4)
	}
	buf := arena.buf[:total]
	arena.buf = buf
	for _, v := range senders {
		p := out[v]
		pe := int64(0)
		if s, ok := p.(Sizer); ok {
			pe = int64(s.PayloadEntries())
		}
		for _, u := range t.adj[v] {
			if int(u) >= lo && int(u) < hi && live[u] {
				buf[cursor[u-int32(lo)]] = Message{From: v, Payload: p}
				cursor[u-int32(lo)]++
				entries += pe
			}
		}
	}
	msgs = int64(total)
	start := int32(0)
	for u := lo; u < hi; u++ {
		end := cursor[u-lo] // == start + cnt[u-lo] after the fill pass
		if live[u] {
			in[u] = buf[start:end:end]
		} else {
			in[u] = nil
		}
		start = end
	}
	return msgs, entries
}
