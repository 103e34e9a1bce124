// Jobwindows: deadline scheduling on identical machines — the §7
// line-network scenario. Jobs have release times, deadlines, processing
// times and profits; three identical machines (resources) offer unit
// capacity per timeslot. The example contrasts this paper's (4+ε)
// algorithm with the Panconesi–Sozio (20+ε) baseline and greedy, and
// shows the window placement the solver chose.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"treesched"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	p := treesched.GenerateLineProblem(treesched.LineWorkload{
		Slots: 48, Resources: 3, Demands: 22,
		Unit: true, MaxProc: 10, Slack: 14, AccessProb: 0.7,
		PMin: 1, PMax: 20,
	}, rng)

	ours, _, err := treesched.Solve(p, "line-unit", treesched.Options{Epsilon: 0.25, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	ps, _, err := treesched.Solve(p, "ps", treesched.Options{Epsilon: 0.25, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	seq, _, err := treesched.Solve(p, "seq-line", treesched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	greedy, _, err := treesched.Solve(p, "greedy", treesched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []*treesched.Result{ours, ps, seq, greedy} {
		if err := treesched.VerifySolution(p, r.Selected); err != nil {
			log.Fatalf("%s: %v", r.Name, err)
		}
	}

	fmt.Println("algorithm                 profit  jobs  certified ≤   worst-case bound")
	fmt.Printf("multi-stage (this paper)  %6.1f  %4d   %8.2fx      %.1f\n",
		ours.Profit, len(ours.Selected), ours.CertifiedRatio, ours.Bound)
	fmt.Printf("Panconesi–Sozio baseline  %6.1f  %4d   %8.2fx      %.1f\n",
		ps.Profit, len(ps.Selected), ps.CertifiedRatio, ps.Bound)
	fmt.Printf("sequential 2-approx [4,5] %6.1f  %4d   %8.2fx      %.1f\n",
		seq.Profit, len(seq.Selected), seq.CertifiedRatio, seq.Bound)
	fmt.Printf("greedy                    %6.1f  %4d          —        —\n",
		greedy.Profit, len(greedy.Selected))

	// Gantt-style rendering of machine 0's schedule under our algorithm.
	fmt.Println("\nmachine 0 timeline (this paper's schedule):")
	lane := make([]byte, p.NumSlots)
	for i := range lane {
		lane[i] = '.'
	}
	for _, d := range ours.Selected {
		if d.Net != 0 {
			continue
		}
		mark := byte('A' + d.Demand%26)
		for s := d.U; s <= d.V; s++ {
			lane[s] = mark
		}
	}
	fmt.Printf("  |%s|\n", string(lane))
	fmt.Println(strings.Repeat(" ", 3) + "(letters = jobs, dots = idle slots)")
}
