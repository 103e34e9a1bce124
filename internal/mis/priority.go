package mis

import (
	"slices"

	"treesched/internal/conflict"
)

// Priority returns a deterministic pseudo-random priority in [0,1) for a
// demand instance at a given (step, phase) position of the algorithm. The
// centralized and distributed executors both draw priorities through this
// function, so with equal seeds they compute identical maximal independent
// sets — the equivalence the tests assert.
//
// The generator is splitmix64 over the packed coordinates.
func Priority(seed uint64, inst int32, step uint64, phase int) float64 {
	x := seed
	x ^= uint64(inst) * 0x9E3779B97F4A7C15
	x ^= step * 0xBF58476D1CE4E5B9
	x ^= uint64(phase) * 0x94D049BB133111EB
	// splitmix64 finalizer.
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z = z ^ (z >> 31)
	return float64(z>>11) / float64(1<<53)
}

// Scratch holds the reusable state of the list-seeded clique-cover Luby
// routine so a solver calling it once per framework step allocates
// nothing in steady state. A Scratch is single-goroutine; it sizes itself
// for each call's vertex and clique counts. The set returned by its
// method aliases an internal buffer and is overwritten by the next call
// — callers that retain sets must copy them out.
type Scratch struct {
	st      []state
	prio    []float64
	und     []int32
	winners []int32
	out     []int32
	// Per-clique phase minima, reset lazily: a clique's top1 entry is
	// valid only when its stamp matches the current generation, so phases
	// touch only the cliques of still-undecided vertices.
	top1        []int32
	cliqueStamp []int32
	cliqueGen   int32
}

// NewScratch sizes a scratch for n vertices and numCliques cliques.
func NewScratch(n, numCliques int) *Scratch {
	s := &Scratch{}
	s.ensure(n, numCliques)
	return s
}

// ensure re-sizes the buffers for a call on n vertices / nc cliques.
// Contents carry over and need no clearing: a call writes the state and
// priority of each list member before reading it, and reads a clique's
// minimum only under a stamp from the current generation.
func (s *Scratch) ensure(n, nc int) {
	if cap(s.st) < n {
		s.st = make([]state, n)
		s.prio = make([]float64, n)
	}
	s.st = s.st[:n]
	s.prio = s.prio[:n]
	if cap(s.top1) < nc {
		s.top1 = make([]int32, nc)
		s.cliqueStamp = make([]int32, nc)
	}
	s.top1 = s.top1[:nc]
	s.cliqueStamp = s.cliqueStamp[:nc]
	s.winners = s.winners[:0]
	s.out = s.out[:0]
}

// offer folds vertex i into clique k's running (priority, index)
// minimum for the current phase.
func (s *Scratch) offer(k, i int32) {
	if s.cliqueStamp[k] != s.cliqueGen {
		s.cliqueStamp[k] = s.cliqueGen
		s.top1[k] = i
	} else if j := s.top1[k]; s.prio[i] < s.prio[j] || (s.prio[i] == s.prio[j] && i < j) {
		s.top1[k] = i
	}
}

// exclude marks the undecided members of clique k excluded.
func (s *Scratch) exclude(im conflict.Implicit, k int32) {
	for _, j := range im.Clique(k) {
		if s.st[j] == undecided {
			s.st[j] = excluded
		}
	}
}

// LubyFuncImplicit computes, over the clique cover im, the maximal
// independent set of the vertices in list (ascending, duplicate-free)
// that LubyFunc computes on the corresponding explicit graph with those
// vertices active: with the same priority function it returns exactly
// the same set (ascending) and phase count. Winners are the per-clique
// minima by (priority, index); exclusions are clique co-members.
//
// The call costs the list and the cliques of its members, never the
// vertex or clique count. A vertex outside list is never read for a
// decision — its state is at most overwritten by an exclusion — so no
// call depends on what an earlier (even an interrupted) call left behind.
func (s *Scratch) LubyFuncImplicit(im conflict.Implicit, list []int32, prio func(i int32, phase int) float64) ([]int32, int) {
	s.ensure(im.N(), im.NumCliques())
	s.und = append(s.und[:0], list...)
	for _, i := range list {
		s.st[i] = undecided
	}
	nd := im.NumDemands()
	phase := 0
	for len(s.und) > 0 {
		phase++
		for _, i := range s.und {
			s.prio[i] = prio(i, phase)
		}
		// Ascending accumulation over the undecided worklist reproduces
		// each clique's minimum over its undecided members exactly.
		s.cliqueGen++
		for _, i := range s.und {
			s.offer(im.Demand(i), i)
			for _, e := range im.Path(i) {
				s.offer(nd+e, i)
			}
		}
		s.winners = s.winners[:0]
		for _, i := range s.und {
			if s.top1[im.Demand(i)] != i {
				continue
			}
			best := true
			for _, e := range im.Path(i) {
				if s.top1[nd+e] != i {
					best = false
					break
				}
			}
			if best {
				s.winners = append(s.winners, i)
			}
		}
		for _, i := range s.winners {
			s.st[i] = inMIS
			s.out = append(s.out, i)
		}
		for _, i := range s.winners {
			s.exclude(im, im.Demand(i))
			for _, e := range im.Path(i) {
				s.exclude(im, nd+e)
			}
		}
		s.und = compactUndecided(s.und, s.st)
	}
	slices.Sort(s.out)
	return s.out, phase
}
