package conflict

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/model"
)

func buildModel(t testing.TB, seed int64, tree bool) *model.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var m *model.Model
	var err error
	if tree {
		p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 3, Demands: 15, Unit: true}, rng)
		m, err = model.Build(p, model.Options{})
	} else {
		p := gen.LineProblem(gen.LineConfig{Slots: 30, Resources: 2, Demands: 12, Unit: true}, rng)
		m, err = model.Build(p, model.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExplicitMatchesPairwisePredicate(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, tree := range []bool{true, false} {
			m := buildModel(t, seed, tree)
			g := Build(m)
			if err := g.VerifyAgainstModel(m); err != nil {
				t.Fatalf("seed %d tree=%v: %v", seed, tree, err)
			}
		}
	}
}

// TestImplicitCoversAllConflicts checks the model-backed cover on tree
// and line models: the union of its cliques is exactly the conflict
// relation (every conflicting pair shares a clique, and no clique joins
// a non-conflicting pair), and the cliques each instance is read from —
// its demand's and its path edges' — contain it.
func TestImplicitCoversAllConflicts(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, tree := range []bool{true, false} {
			m := buildModel(t, seed, tree)
			im := Cover(m)
			if im.N() != len(m.Insts) || im.NumCliques() != m.NumDemands+m.EdgeSpace {
				t.Fatalf("seed %d tree=%v: cover sized %d/%d", seed, tree, im.N(), im.NumCliques())
			}
			adj := make([]map[int32]bool, im.N())
			for i := range adj {
				adj[i] = map[int32]bool{}
			}
			for k := int32(0); int(k) < im.NumCliques(); k++ {
				members := im.Clique(k)
				for _, i := range members {
					for _, j := range members {
						if i != j {
							adj[i][j] = true
						}
					}
				}
			}
			for i := int32(0); int(i) < im.N(); i++ {
				for j := int32(0); int(j) < im.N(); j++ {
					if i == j {
						continue
					}
					if adj[i][j] != m.Conflict(i, j) {
						t.Fatalf("seed %d tree=%v: clique cover edge (%d,%d)=%v, model says %v",
							seed, tree, i, j, adj[i][j], m.Conflict(i, j))
					}
				}
			}
			for i := int32(0); int(i) < im.N(); i++ {
				ks := []int32{im.Demand(i)}
				for _, e := range im.Path(i) {
					ks = append(ks, im.NumDemands()+e)
				}
				for _, k := range ks {
					if !slices.Contains(im.Clique(k), i) {
						t.Fatalf("seed %d tree=%v: instance %d is read from clique %d that does not contain it", seed, tree, i, k)
					}
				}
			}
		}
	}
}

func TestDegreeAndEmptyGraph(t *testing.T) {
	m := buildModel(t, 7, true)
	g := Build(m)
	for i := int32(0); int(i) < g.N; i++ {
		if g.Degree(i) != len(g.Adj[i]) {
			t.Fatal("Degree mismatch")
		}
	}
}

func BenchmarkBuildExplicit(b *testing.B) {
	m := buildModel(b, 1, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(m)
	}
}
