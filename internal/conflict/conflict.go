// Package conflict builds the conflict graph over demand instances (§2):
// two instances conflict when they belong to the same demand or when they
// are scheduled on the same network and their paths share an edge.
//
// The conflict graph is exactly the graph on which the distributed
// algorithm computes maximal independent sets (§5, "Distributed
// Implementation"). Two representations are provided: an explicit
// adjacency-list Graph, and an Implicit clique cover (one clique per
// demand, one per edge) that supports Luby-style aggregation without
// materializing potentially quadratic adjacency.
package conflict

import (
	"fmt"

	"treesched/internal/model"
)

// Graph is an explicit conflict graph over instances 0..N-1.
type Graph struct {
	N   int
	Adj [][]int32
}

// Implicit is a clique cover of the conflict graph read in place from a
// compiled model — the model's indexes already are the cliques, so the
// cover copies nothing and costs nothing to build. Clique a <
// NumDemands is demand a's instances (InstsOf row a); clique
// NumDemands+e is the instances whose path contains edge e (EdgeInsts
// row e). Instance i lies in clique Demand(i) and in clique
// NumDemands+e for every e in Path(i). Every conflict edge is covered by
// at least one clique; cliques of size < 2 cover none, but they are
// harmless to aggregation (a singleton is its own minimum and excludes
// no one).
type Implicit struct {
	m *model.Model
}

// Cover returns the model-backed clique cover of m.
func Cover(m *model.Model) Implicit { return Implicit{m: m} }

// N returns the vertex (instance) count.
func (im Implicit) N() int { return len(im.m.Insts) }

// NumDemands is the id of the first edge clique.
func (im Implicit) NumDemands() int32 { return int32(im.m.NumDemands) }

// NumCliques returns the total clique count, NumDemands + EdgeSpace.
func (im Implicit) NumCliques() int { return im.m.NumDemands + im.m.EdgeSpace }

// Demand returns the id of instance i's demand clique.
func (im Implicit) Demand(i int32) int32 { return im.m.Insts[i].Demand }

// Path returns the edges of instance i's path; instance i lies in edge
// clique NumDemands+e for each of them.
func (im Implicit) Path(i int32) []int32 { return im.m.Paths.Row(i) }

// Clique returns the members of clique id k (demand cliques first),
// ascending.
func (im Implicit) Clique(k int32) []int32 {
	if nd := im.NumDemands(); k >= nd {
		return im.m.EdgeInsts.Row(k - nd)
	}
	return im.m.InstsOf.Row(k)
}

// Build materializes the explicit conflict graph from the clique cover.
// Instances active on a common edge form cliques, so the output can be
// quadratic in clique sizes; prefer Implicit for large inputs.
func Build(m *model.Model) *Graph {
	im := Cover(m)
	g := &Graph{N: im.N(), Adj: make([][]int32, im.N())}
	seen := make([]int32, im.N())
	for i := range seen {
		seen[i] = -1
	}
	nd := im.NumDemands()
	for i := int32(0); int(i) < g.N; i++ {
		seen[i] = i
		add := func(k int32) {
			for _, j := range im.Clique(k) {
				if seen[j] != i {
					seen[j] = i
					g.Adj[i] = append(g.Adj[i], j)
				}
			}
		}
		add(im.Demand(i))
		for _, e := range im.Path(i) {
			add(nd + e)
		}
	}
	return g
}

// Degree returns the degree of instance i.
func (g *Graph) Degree(i int32) int { return len(g.Adj[i]) }

// VerifyAgainstModel cross-checks the explicit graph against the model's
// pairwise Conflict predicate, using a reusable neighbor-stamp slice
// instead of per-vertex hash sets. O(N²); for tests.
func (g *Graph) VerifyAgainstModel(m *model.Model) error {
	mark := make([]int32, g.N)
	for i := range mark {
		mark[i] = -1
	}
	contains := func(u, v int32) bool {
		for _, w := range g.Adj[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for i := int32(0); int(i) < g.N; i++ {
		for _, j := range g.Adj[i] {
			mark[j] = i
		}
		for j := int32(0); int(j) < g.N; j++ {
			if i == j {
				continue
			}
			has := mark[j] == i
			if want := m.Conflict(i, j); has != want {
				return fmt.Errorf("conflict: edge (%d,%d)=%v want %v", i, j, has, want)
			}
			// One-directional symmetry probe: a missing reverse edge is
			// caught here, a missing forward edge at iteration (j,i).
			if has && !contains(j, i) {
				return fmt.Errorf("conflict: asymmetric edge (%d,%d)", i, j)
			}
		}
	}
	return nil
}
