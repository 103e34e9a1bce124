package treesched_test

import (
	"math/rand"
	"testing"

	"treesched"
)

// TestQuickstart exercises the doc-comment example end to end.
func TestQuickstart(t *testing.T) {
	tree, err := treesched.NewTree(6, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	p := &treesched.Problem{
		Kind:        treesched.KindTree,
		NumVertices: 6,
		Trees:       []*treesched.Tree{tree},
		Demands: []treesched.Demand{
			{ID: 0, U: 0, V: 4, Profit: 3, Height: 1, Access: []int{0}},
			{ID: 1, U: 2, V: 5, Profit: 2, Height: 1, Access: []int{0}},
		},
	}
	res, _, err := treesched.Solve(p, "tree-unit", treesched.Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := treesched.VerifySolution(p, res.Selected); err != nil {
		t.Fatal(err)
	}
	// Paths 0-1-3-4 and 2-1-3-5 share edge 1-3: only one demand fits, and
	// the dual certificate must bracket the optimum (profit 3).
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d demands, want 1", len(res.Selected))
	}
	if res.DualUB < 3-1e-9 || res.Profit > 3 {
		t.Fatalf("profit %g, dual UB %g", res.Profit, res.DualUB)
	}
}

func TestFacadeSolversRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := treesched.GenerateTreeProblem(treesched.TreeWorkload{
		N: 16, Trees: 2, Demands: 10, Unit: true,
	}, rng)
	lpb := treesched.GenerateLineProblem(treesched.LineWorkload{
		Slots: 20, Resources: 2, Demands: 8, Unit: true,
	}, rng)
	mixed := treesched.GenerateTreeProblem(treesched.TreeWorkload{
		N: 16, Trees: 2, Demands: 10, HMin: 0.1, HMax: 1,
	}, rng)

	for _, tc := range []struct {
		algo string
		p    *treesched.Problem
	}{
		{"tree-unit", tp}, {"line-unit", lpb}, {"arbitrary", mixed}, {"sequential", tp},
		{"exact", tp}, {"greedy", tp}, {"ps", lpb},
	} {
		res, _, err := treesched.Solve(tc.p, tc.algo, treesched.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if err := treesched.VerifySolution(tc.p, res.Selected); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
	}

	_, d, err := treesched.Solve(tp, "dist-unit", treesched.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Net.Rounds == 0 {
		t.Fatal("distributed run reported zero rounds")
	}
	if _, _, err := treesched.Solve(tp, "no-such-algo", treesched.Options{}); err == nil {
		t.Fatal("Solve accepted an unknown algorithm")
	}
}

func TestFacadeLineExtras(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lpb := treesched.GenerateLineProblem(treesched.LineWorkload{
		Slots: 24, Resources: 2, Demands: 10, Unit: true, MaxProc: 6,
	}, rng)
	seq, _, err := treesched.Solve(lpb, "seq-line", treesched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := treesched.VerifySolution(lpb, seq.Selected); err != nil {
		t.Fatal(err)
	}
	if seq.Bound != 2 {
		t.Fatalf("sequential-line bound %g want 2", seq.Bound)
	}
	_, dps, err := treesched.Solve(lpb, "dist-ps", treesched.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := treesched.VerifySolution(lpb, dps.Selected); err != nil {
		t.Fatal(err)
	}
	narrow := treesched.GenerateLineProblem(treesched.LineWorkload{
		Slots: 24, Resources: 2, Demands: 8, HMin: 0.2, HMax: 0.5, MaxProc: 6,
	}, rng)
	_, dn, err := treesched.Solve(narrow, "dist-narrow", treesched.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := treesched.VerifySolution(narrow, dn.Selected); err != nil {
		t.Fatal(err)
	}
	_, fixed, err := treesched.Solve(lpb, "dist-unit", treesched.Options{Seed: 3, FixedRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Net.Aggregations != 0 {
		t.Fatal("fixed-rounds run used aggregations")
	}
	if _, _, err := treesched.Solve(lpb, "narrow", treesched.Options{}); err == nil {
		t.Fatal("narrow accepted unit heights > 1/2")
	}
}
