package mis

import (
	"math/rand"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/gen"
	"treesched/internal/model"
)

func buildGraphs(t testing.TB, seed int64) (*model.Model, *conflict.Graph, conflict.Implicit) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := gen.TreeProblem(gen.TreeConfig{N: 25, Trees: 3, Demands: 20, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, conflict.Build(m), conflict.Cover(m)
}

// listOf returns the ascending list of active vertices.
func listOf(active []bool) []int32 {
	var list []int32
	for i, a := range active {
		if a {
			list = append(list, int32(i))
		}
	}
	return list
}

// lubyImplicit runs the list-seeded clique-cover routine on a fresh
// scratch with rng-drawn priorities — the cover counterpart of Luby.
func lubyImplicit(im conflict.Implicit, active []bool, rng *rand.Rand) ([]int32, int) {
	return NewScratch(0, 0).LubyFuncImplicit(im, listOf(active), func(int32, int) float64 { return rng.Float64() })
}

func TestLubyProducesMaximalIndependentSets(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, g, _ := buildGraphs(t, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		active := make([]bool, g.N)
		for i := range active {
			active[i] = true
		}
		set, phases := Luby(g, active, rng)
		if phases < 1 {
			t.Fatal("no phases")
		}
		if err := VerifyMaximalIndependent(g, active, set); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLubyRespectsActiveSubset(t *testing.T) {
	_, g, _ := buildGraphs(t, 3)
	rng := rand.New(rand.NewSource(99))
	active := make([]bool, g.N)
	for i := 0; i < g.N; i += 2 {
		active[i] = true
	}
	set, _ := Luby(g, active, rng)
	for _, i := range set {
		if i%2 != 0 {
			t.Fatalf("inactive vertex %d selected", i)
		}
	}
	if err := VerifyMaximalIndependent(g, active, set); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitAndImplicitLubyAgree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		_, g, im := buildGraphs(t, seed)
		active := make([]bool, g.N)
		rng := rand.New(rand.NewSource(seed))
		for i := range active {
			active[i] = rng.Intn(4) > 0
		}
		r1 := rand.New(rand.NewSource(1234 + seed))
		r2 := rand.New(rand.NewSource(1234 + seed))
		s1, p1 := Luby(g, active, r1)
		s2, p2 := lubyImplicit(im, active, r2)
		if p1 != p2 {
			t.Fatalf("seed %d: phases %d vs %d", seed, p1, p2)
		}
		if len(s1) != len(s2) {
			t.Fatalf("seed %d: sizes %d vs %d", seed, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("seed %d: element %d: %d vs %d", seed, i, s1[i], s2[i])
			}
		}
	}
}

func TestGreedyIsMaximalIndependent(t *testing.T) {
	_, g, _ := buildGraphs(t, 5)
	active := make([]bool, g.N)
	for i := range active {
		active[i] = true
	}
	set := Greedy(g, active)
	if err := VerifyMaximalIndependent(g, active, set); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyActiveSet(t *testing.T) {
	_, g, im := buildGraphs(t, 6)
	active := make([]bool, g.N)
	rng := rand.New(rand.NewSource(1))
	if set, phases := Luby(g, active, rng); len(set) != 0 || phases != 0 {
		t.Fatal("empty active set should need 0 phases")
	}
	if set, phases := lubyImplicit(im, active, rng); len(set) != 0 || phases != 0 {
		t.Fatal("implicit: empty active set should need 0 phases")
	}
	if set := Greedy(g, active); len(set) != 0 {
		t.Fatal("greedy on empty active set")
	}
}

func TestVerifierCatchesViolations(t *testing.T) {
	_, g, _ := buildGraphs(t, 7)
	active := make([]bool, g.N)
	for i := range active {
		active[i] = true
	}
	// Non-maximal: empty set with non-empty active graph.
	if err := VerifyMaximalIndependent(g, active, nil); err == nil {
		t.Fatal("verifier accepted empty non-maximal set")
	}
	// Dependent: two adjacent vertices.
	var a int32 = -1
	for i := int32(0); int(i) < g.N; i++ {
		if len(g.Adj[i]) > 0 {
			a = i
			break
		}
	}
	if a >= 0 {
		b := g.Adj[a][0]
		if err := VerifyMaximalIndependent(g, active, []int32{a, b}); err == nil {
			t.Fatal("verifier accepted adjacent pair")
		}
	}
}

func TestLubyPhaseCountIsLogarithmicish(t *testing.T) {
	// Not a strict bound test — just guards against pathological phase
	// explosion: expected phases are O(log N) w.h.p., so 10 trials on a
	// ~60-vertex graph should never need 40 phases.
	for seed := int64(0); seed < 10; seed++ {
		_, g, _ := buildGraphs(t, seed+100)
		active := make([]bool, g.N)
		for i := range active {
			active[i] = true
		}
		_, phases := Luby(g, active, rand.New(rand.NewSource(seed)))
		if phases > 40 {
			t.Fatalf("seed %d: %d phases on %d vertices", seed, phases, g.N)
		}
	}
}

func BenchmarkLubyExplicit(b *testing.B) {
	_, g, _ := buildGraphs(b, 1)
	active := make([]bool, g.N)
	for i := range active {
		active[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		_, _ = Luby(g, active, rng)
	}
}

func BenchmarkLubyImplicit(b *testing.B) {
	_, _, im := buildGraphs(b, 1)
	active := make([]bool, im.N())
	for i := range active {
		active[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		_, _ = lubyImplicit(im, active, rng)
	}
}
