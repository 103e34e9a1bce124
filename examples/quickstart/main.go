// Quickstart: build a small tree-network problem by hand, run the paper's
// main algorithm (unit heights, 7+ε), and print the schedule with its
// optimality certificate.
package main

import (
	"fmt"
	"log"

	"treesched"
)

func main() {
	// A 10-vertex access network shaped like two stars bridged by an
	// aggregation link 4-5, replicated as two parallel trees (think two
	// wavelengths on the same fiber plant).
	edges := [][2]int{
		{0, 4}, {1, 4}, {2, 4}, {3, 4},
		{4, 5},
		{5, 6}, {5, 7}, {5, 8}, {5, 9},
	}
	t1, err := treesched.NewTree(10, edges)
	if err != nil {
		log.Fatal(err)
	}
	t2, err := treesched.NewTree(10, edges)
	if err != nil {
		log.Fatal(err)
	}

	p := &treesched.Problem{
		Kind:        treesched.KindTree,
		NumVertices: 10,
		Trees:       []*treesched.Tree{t1, t2},
		Demands: []treesched.Demand{
			// Cross-bridge circuits compete for edge 4-5 within a tree.
			{ID: 0, U: 0, V: 6, Profit: 5, Height: 1, Access: []int{0, 1}},
			{ID: 1, U: 1, V: 7, Profit: 4, Height: 1, Access: []int{0}},
			{ID: 2, U: 2, V: 8, Profit: 3, Height: 1, Access: []int{1}},
			// Local circuits that avoid the bridge.
			{ID: 3, U: 0, V: 1, Profit: 2, Height: 1, Access: []int{0, 1}},
			{ID: 4, U: 6, V: 7, Profit: 2, Height: 1, Access: []int{0, 1}},
		},
	}

	res, _, err := treesched.Solve(p, "tree-unit", treesched.Options{Epsilon: 0.25, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := treesched.VerifySolution(p, res.Selected); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheduled %d of %d demands, profit %.1f\n", len(res.Selected), len(p.Demands), res.Profit)
	for _, d := range res.Selected {
		fmt.Printf("  demand %d: vertices %d-%d on tree %d (profit %.1f)\n",
			d.Demand, d.U, d.V, d.Net, d.Profit)
	}
	fmt.Printf("certificate: OPT ≤ %.2f, so this run is within %.2fx of optimal (worst-case bound %.2f)\n",
		res.DualUB, res.CertifiedRatio, res.Bound)

	opt, _, err := treesched.Solve(p, "exact", treesched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact optimum (branch & bound): %.1f\n", opt.Profit)
}
