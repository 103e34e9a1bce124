// Videowall: bandwidth reservation on a campus distribution tree with
// non-uniform link capacities — the IPPS'13 title scenario.
//
// A media team wants to stream video feeds between buildings. The campus
// backbone is a tree (core switch, three distribution switches, leaf
// buildings); two parallel VLANs give each stream a choice of fabric. Core
// uplinks carry 2 Gb/s, access links 1 Gb/s; streams reserve 0.2–0.9 Gb/s
// end-to-end. The arbitrary-height capacitated solver places a
// near-optimal subset of streams.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"treesched"
)

func main() {
	// Vertices: 0 core; 1-3 distribution; 4-12 buildings (3 per switch).
	const n = 13
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3},
		{1, 4}, {1, 5}, {1, 6},
		{2, 7}, {2, 8}, {2, 9},
		{3, 10}, {3, 11}, {3, 12},
	}
	mkTree := func() *treesched.Tree {
		t, err := treesched.NewTree(n, edges)
		if err != nil {
			log.Fatal(err)
		}
		return t
	}

	// Capacities by child endpoint: distribution uplinks (children 1,2,3)
	// carry 2 Gb/s, access links 1 Gb/s. Two identical VLAN fabrics.
	capRow := make([]float64, n)
	for v := 1; v < n; v++ {
		if v <= 3 {
			capRow[v] = 2.0
		} else {
			capRow[v] = 1.0
		}
	}
	p := &treesched.Problem{
		Kind:        treesched.KindTree,
		NumVertices: n,
		Trees:       []*treesched.Tree{mkTree(), mkTree()},
		Capacities:  [][]float64{capRow, append([]float64(nil), capRow...)},
	}

	// Streams: cross-campus feeds with profits ∝ audience size.
	rng := rand.New(rand.NewSource(7))
	buildings := []int{4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i := 0; i < 14; i++ {
		u := buildings[rng.Intn(len(buildings))]
		v := buildings[rng.Intn(len(buildings))]
		for v == u {
			v = buildings[rng.Intn(len(buildings))]
		}
		access := []int{0, 1}
		if i%3 == 0 {
			access = []int{i % 2} // some teams are pinned to one VLAN
		}
		p.Demands = append(p.Demands, treesched.Demand{
			ID: i, U: u, V: v,
			Profit: float64(1 + rng.Intn(9)),
			Height: 0.2 + 0.1*float64(rng.Intn(8)), // 0.2–0.9 Gb/s
			Access: access,
		})
	}

	res, _, err := treesched.Solve(p, "arbitrary", treesched.Options{Epsilon: 0.25, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := treesched.VerifySolution(p, res.Selected); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("admitted %d of %d streams, total value %.0f\n", len(res.Selected), len(p.Demands), res.Profit)
	fmt.Println("stream  route        VLAN  Gb/s  value")
	for _, d := range res.Selected {
		fmt.Printf("  %2d    %2d → %-2d      %d    %.1f   %.0f\n",
			d.Demand, d.U, d.V, d.Net, d.Height, d.Profit)
	}
	fmt.Printf("\ncertificate: no admission plan exceeds value %.1f (this one is within %.2fx)\n",
		res.DualUB, res.CertifiedRatio)

	if opt, _, err := treesched.Solve(p, "exact", treesched.Options{}); err == nil {
		fmt.Printf("exact optimum: %.0f (achieved ratio %.3f)\n", opt.Profit, opt.Profit/res.Profit)
	}
}
