package mis

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/model"
)

func TestPriorityDeterministicAndUniformish(t *testing.T) {
	a := Priority(1, 5, 10, 2)
	b := Priority(1, 5, 10, 2)
	if a != b {
		t.Fatal("Priority not deterministic")
	}
	if a < 0 || a >= 1 {
		t.Fatalf("Priority %g outside [0,1)", a)
	}
	// Changing any coordinate changes the value (with overwhelming
	// probability for these fixed inputs).
	if Priority(2, 5, 10, 2) == a || Priority(1, 6, 10, 2) == a ||
		Priority(1, 5, 11, 2) == a || Priority(1, 5, 10, 3) == a {
		t.Fatal("Priority collision across coordinates")
	}
	// Crude uniformity check: mean of many draws near 0.5.
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += Priority(7, int32(i), 3, 1)
	}
	mean := sum / float64(n)
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
}

func TestLubyFuncExplicitImplicitAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.TreeProblem(gen.TreeConfig{N: 25, Trees: 2, Demands: 18, Unit: true}, rng)
		m, err := model.Build(p, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := conflict.Build(m)
		im := conflict.Cover(m)
		active := make([]bool, g.N)
		for i := range active {
			active[i] = rng.Intn(5) > 0
		}
		prio := func(i int32, phase int) float64 {
			return Priority(uint64(seed), i, 9, phase)
		}
		s1, p1 := LubyFunc(g.Adj, active, prio)
		s2, p2 := NewScratch(0, 0).LubyFuncImplicit(im, listOf(active), prio)
		if p1 != p2 || len(s1) != len(s2) {
			t.Fatalf("seed %d: phases %d/%d sizes %d/%d", seed, p1, p2, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("seed %d: sets differ at %d", seed, i)
			}
		}
		if err := VerifyMaximalIndependent(g, active, s1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLubyFuncMatchesRNGVariantSemantics(t *testing.T) {
	// LubyFunc with priorities drawn from an rng-lookup table must equal
	// Luby run with the same table (both use (prio, index) tie-break).
	rng := rand.New(rand.NewSource(3))
	p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: 15, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := conflict.Build(m)
	active := make([]bool, g.N)
	for i := range active {
		active[i] = true
	}
	prio := func(i int32, phase int) float64 {
		return Priority(42, i, 1, phase)
	}
	set, phases := LubyFunc(g.Adj, active, prio)
	if phases < 1 || len(set) == 0 {
		t.Fatal("degenerate MIS")
	}
	if err := VerifyMaximalIndependent(g, active, set); err != nil {
		t.Fatal(err)
	}
}

// TestListSeededLubyMatchesOracle drives one reused scratch through
// calls with different random active lists — on tree and line models,
// interleaved, so the scratch also changes size — and requires each to
// return exactly the set and phase count of the []bool explicit-graph
// oracle. Midway, a call is interrupted by a panicking priority function
// and the scratch is reused as is: states left behind by an earlier call
// must never change a later one.
func TestListSeededLubyMatchesOracle(t *testing.T) {
	type fixture struct {
		g  *conflict.Graph
		im conflict.Implicit
	}
	var fixtures []fixture
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, p := range []*instance.Problem{
			gen.TreeProblem(gen.TreeConfig{N: 30, Trees: 2, Demands: 24, Unit: true}, rng),
			gen.LineProblem(gen.LineConfig{Slots: 40, Resources: 2, Demands: 20, Unit: true, MaxProc: 6, Slack: 8}, rng),
		} {
			m, err := model.Build(p, model.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, fixture{conflict.Build(m), conflict.Cover(m)})
		}
	}
	s := NewScratch(0, 0)
	rng := rand.New(rand.NewSource(17))
	for call := 0; call < 200; call++ {
		f := fixtures[rng.Intn(len(fixtures))]
		active := make([]bool, f.g.N)
		density := 1 + rng.Intn(4)
		for i := range active {
			active[i] = rng.Intn(4) < density
		}
		step := uint64(call)
		prio := func(i int32, phase int) float64 { return Priority(5, i, step, phase) }
		if call%25 == 12 {
			// Interrupt a call partway through its first phase.
			budget := rng.Intn(len(listOf(active)) + 1)
			func() {
				defer func() { _ = recover() }()
				s.LubyFuncImplicit(f.im, listOf(active), func(i int32, phase int) float64 {
					if budget == 0 {
						panic("interrupted")
					}
					budget--
					return prio(i, phase)
				})
			}()
			continue
		}
		want, wantPhases := LubyFunc(f.g.Adj, active, prio)
		got, gotPhases := s.LubyFuncImplicit(f.im, listOf(active), prio)
		if gotPhases != wantPhases || !slices.Equal(got, want) {
			t.Fatalf("call %d: list-seeded %v (%d phases), oracle %v (%d phases)", call, got, gotPhases, want, wantPhases)
		}
		if err := VerifyMaximalIndependent(f.g, active, got); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
}
