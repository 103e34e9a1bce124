// Package mis implements Luby's randomized maximal independent set
// algorithm [Luby 1986], the MIS subroutine named by the paper for its
// distributed iterations (§5). Two equivalent executions are provided:
//
//   - LubyFunc (and its rng form Luby): over an explicit conflict graph,
//     seeded by active flags over all vertices — the reference oracle;
//   - Scratch.LubyFuncImplicit: over the model-backed clique cover,
//     seeded by a list of active vertices and aggregating priorities per
//     clique, so each phase costs the undecided frontier and its cliques
//     instead of the whole graph — the routine the solvers run.
//
// Both draw per-phase priorities for the undecided vertices in increasing
// index order, so with equal priorities they return identical sets — a
// property the tests rely on.
package mis

import (
	"fmt"
	"math/rand"
	"slices"

	"treesched/internal/conflict"
)

// state tracks per-vertex progress within one MIS computation.
type state uint8

const (
	undecided state = iota
	inMIS
	excluded
	inactive
)

// Luby computes a maximal independent set of the subgraph of g induced by
// active vertices, drawing priorities from rng. It returns the set
// (ascending order) and the number of phases used; each phase
// corresponds to O(1) communication rounds in the distributed
// implementation.
func Luby(g *conflict.Graph, active []bool, rng *rand.Rand) ([]int32, int) {
	return LubyFunc(g.Adj, active, func(int32, int) float64 { return rng.Float64() })
}

// LubyFunc computes a maximal independent set like Luby, but with
// priorities supplied by prio(vertex, phase) instead of an rng — the hook
// the deterministic distributed/centralized equivalence uses. Each phase
// draws for the undecided vertices in ascending order, then a vertex
// joins when it beats every undecided neighbor by (priority, index)
// order. It returns a freshly allocated set (ascending) and the number
// of phases.
func LubyFunc(adj [][]int32, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	n := len(adj)
	st := make([]state, n)
	p := make([]float64, n)
	var und, winners, set []int32
	for i := range st {
		if active[i] {
			und = append(und, int32(i))
		} else {
			st[i] = inactive
		}
	}
	phase := 0
	for len(und) > 0 {
		phase++
		for _, i := range und {
			p[i] = prio(i, phase)
		}
		winners = winners[:0]
		for _, i := range und {
			best := true
			for _, j := range adj[i] {
				if st[j] != undecided {
					continue
				}
				if p[j] < p[i] || (p[j] == p[i] && j < i) {
					best = false
					break
				}
			}
			if best {
				winners = append(winners, i)
			}
		}
		for _, i := range winners {
			st[i] = inMIS
			set = append(set, i)
		}
		for _, i := range winners {
			for _, j := range adj[i] {
				if st[j] == undecided {
					st[j] = excluded
				}
			}
		}
		und = compactUndecided(und, st)
	}
	slices.Sort(set)
	return set, phase
}

// compactUndecided drops decided vertices from the worklist in place,
// preserving ascending order.
func compactUndecided(und []int32, st []state) []int32 {
	keep := und[:0]
	for _, i := range und {
		if st[i] == undecided {
			keep = append(keep, i)
		}
	}
	return keep
}

// Greedy returns the deterministic lowest-index-first MIS, used as a
// reference implementation in tests.
func Greedy(g *conflict.Graph, active []bool) []int32 {
	st := make([]state, g.N)
	for i := range st {
		if !active[i] {
			st[i] = inactive
		}
	}
	var mis []int32
	for i := int32(0); int(i) < g.N; i++ {
		if st[i] != undecided {
			continue
		}
		st[i] = inMIS
		mis = append(mis, i)
		for _, j := range g.Adj[i] {
			if st[j] == undecided {
				st[j] = excluded
			}
		}
	}
	return mis
}

// VerifyMaximalIndependent checks that set is independent in g and maximal
// within the active subgraph.
func VerifyMaximalIndependent(g *conflict.Graph, active []bool, set []int32) error {
	in := make([]bool, g.N)
	for _, i := range set {
		if !active[i] {
			return fmt.Errorf("mis: vertex %d in set but not active", i)
		}
		in[i] = true
	}
	for _, i := range set {
		for _, j := range g.Adj[i] {
			if in[j] {
				return fmt.Errorf("mis: adjacent vertices %d,%d both in set", i, j)
			}
		}
	}
	for i := int32(0); int(i) < g.N; i++ {
		if !active[i] || in[i] {
			continue
		}
		dominated := false
		for _, j := range g.Adj[i] {
			if in[j] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("mis: active vertex %d neither in set nor dominated", i)
		}
	}
	return nil
}
