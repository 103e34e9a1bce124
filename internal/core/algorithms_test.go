package core

import (
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

// TestAlgorithmFlagsMatchBehaviour checks each row's option flags
// against what its solver does: under two values of an option the row
// declares irrelevant (ε and seed unless Seeded, FixedRounds unless
// Distributed, MaxNodes unless Budgeted), the row must return the
// identical outcome — selection, profit, DualUB and the rest, or the
// identical error where it does not apply. The service drops exactly
// these options from its memo key, so a wrong flag would serve one
// option's cached answer for another.
func TestAlgorithmFlagsMatchBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	problems := []struct {
		name string
		p    *instance.Problem
	}{
		{"tree", gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 10, Unit: true}, rng)},
		{"line", gen.LineProblem(gen.LineConfig{Slots: 20, Resources: 2, Demands: 10, Unit: true}, rng)},
	}
	base := Options{Epsilon: 0.25, Seed: 1, MaxNodes: 1_000_000}
	variants := []struct {
		option  string
		ignored func(Algorithm) bool
		vary    func(Options) Options
	}{
		{"epsilon+seed", func(a Algorithm) bool { return !a.Seeded },
			func(o Options) Options { o.Epsilon, o.Seed = 0.1, 9; return o }},
		{"fixed-rounds", func(a Algorithm) bool { return !a.Distributed },
			func(o Options) Options { o.FixedRounds = true; return o }},
		{"max-nodes", func(a Algorithm) bool { return !a.Budgeted },
			func(o Options) Options { o.MaxNodes = 10; return o }},
	}
	for _, pc := range problems {
		c, err := Compile(pc.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range AlgorithmNames() {
			a := Algorithms[algo]
			want := outcomeOf(a.Run(c, base))
			for _, v := range variants {
				if !v.ignored(a) {
					continue
				}
				if got := outcomeOf(a.Run(c, v.vary(base))); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: flagged as ignoring %s, but the outcome changed:\n  %+v\nvs\n  %+v",
						pc.name, algo, v.option, got, want)
				}
			}
		}
	}
}
