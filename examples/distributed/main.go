// Distributed: the same scheduling algorithm executed two ways — the fast
// centralized driver and the real message-passing protocol in which every
// processor is a goroutine that only talks to processors sharing a
// resource. The outputs are identical for equal seeds; the distributed run
// additionally reports communication rounds and messages, which is the
// complexity currency of the paper (Theorem 5.3's round bound).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"treesched"
)

func main() {
	rng := rand.New(rand.NewSource(2026))

	fmt.Println("n (vertices)  rounds  messages  entries  aggregations  profit  == centralized")
	for _, n := range []int{32, 64, 128, 256} {
		p := treesched.GenerateTreeProblem(treesched.TreeWorkload{
			N: n, Trees: 3, Demands: 40, Unit: true,
		}, rng)

		central, _, err := treesched.Solve(p, "tree-unit", treesched.Options{Epsilon: 0.25, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		_, distrib, err := treesched.Solve(p, "dist-unit", treesched.Options{Epsilon: 0.25, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := treesched.VerifySolution(p, distrib.Selected); err != nil {
			log.Fatal(err)
		}
		same := math.Abs(central.Profit-distrib.Profit) < 1e-9
		fmt.Printf("%8d      %6d  %8d  %7d  %12d  %6.1f  %v\n",
			n, distrib.Net.Rounds, distrib.Net.Messages, distrib.Net.Entries,
			distrib.Net.Aggregations, distrib.Profit, same)
	}
	fmt.Println("\nrounds grow with log(n) (epochs track the ideal decomposition depth ≤ 2⌈log n⌉),")
	fmt.Println("not with n — the polylogarithmic round complexity of Theorem 5.3.")
	fmt.Println("entries counts delivered payload entries (instance ids and (id, δ) pairs):")
	fmt.Println("each is O(log m + log pmax) bits, the paper's per-message accounting (§5).")
}
