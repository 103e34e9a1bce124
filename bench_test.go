// Benchmarks regenerating every experiment table (E1–E12, one per
// quantitative claim of the paper — see DESIGN.md's per-experiment index)
// plus end-to-end solver benchmarks. Run:
//
//	go test -bench=. -benchmem
package treesched_test

import (
	"context"
	"math/rand"
	"testing"

	"treesched"
	"treesched/internal/bench"
)

// benchTable runs one experiment per iteration with a small deterministic
// config; the table content itself is validated by the harness (panics on
// infeasible solutions or broken certificates).
func benchTable(b *testing.B, f func(bench.Config) *bench.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := f(bench.Config{Seed: 1, Quick: true, Trials: 1})
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1TreeUnit(b *testing.B)     { benchTable(b, bench.E1TreeUnitRatios) }
func BenchmarkE2Rounds(b *testing.B)       { benchTable(b, bench.E2Rounds) }
func BenchmarkE3Narrow(b *testing.B)       { benchTable(b, bench.E3Narrow) }
func BenchmarkE4Arbitrary(b *testing.B)    { benchTable(b, bench.E4Arbitrary) }
func BenchmarkE5LineUnit(b *testing.B)     { benchTable(b, bench.E5LineUnit) }
func BenchmarkE6LineArb(b *testing.B)      { benchTable(b, bench.E6LineArbitrary) }
func BenchmarkE7Decomp(b *testing.B)       { benchTable(b, bench.E7Decomp) }
func BenchmarkE8Steps(b *testing.B)        { benchTable(b, bench.E8Steps) }
func BenchmarkE9Sequential(b *testing.B)   { benchTable(b, bench.E9Sequential) }
func BenchmarkE10Capacitated(b *testing.B) { benchTable(b, bench.E10Capacitated) }
func BenchmarkE11Ablation(b *testing.B)    { benchTable(b, bench.E11DecompAblation) }
func BenchmarkE12Stages(b *testing.B)      { benchTable(b, bench.E12StageAblation) }

// End-to-end solver benchmarks on a fixed mid-size workload.

func treeWorkload(seed int64, n, demands int, unit bool) *treesched.Problem {
	rng := rand.New(rand.NewSource(seed))
	cfg := treesched.TreeWorkload{N: n, Trees: 3, Demands: demands, Unit: unit}
	if !unit {
		cfg.HMin, cfg.HMax = 0.1, 1.0
	}
	return treesched.GenerateTreeProblem(cfg, rng)
}

func BenchmarkSolveTreeUnit(b *testing.B) {
	p := treeWorkload(1, 128, 64, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesched.Solve(p, "tree-unit", treesched.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveArbitrary(b *testing.B) {
	p := treeWorkload(2, 96, 48, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesched.Solve(p, "arbitrary", treesched.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLineUnit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := treesched.GenerateLineProblem(treesched.LineWorkload{
		Slots: 128, Resources: 3, Demands: 64, Unit: true, MaxProc: 16,
	}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesched.Solve(p, "line-unit", treesched.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDistributedUnit(b *testing.B) {
	p := treeWorkload(4, 64, 32, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesched.Solve(p, "dist-unit", treesched.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSequential(b *testing.B) {
	p := treeWorkload(5, 128, 64, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesched.Solve(p, "sequential", treesched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGreedy(b *testing.B) {
	p := treeWorkload(6, 128, 64, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesched.Solve(p, "greedy", treesched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Compile-once benchmarks: the same problem solved many times through a
// CompiledProblem vs recompiling per solve (the pre-service behavior).

func BenchmarkCompiledSolveMany(b *testing.B) {
	p := treeWorkload(7, 128, 64, true)
	c, err := treesched.CompileProblem(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TreeUnit(treesched.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileProblem(b *testing.B) {
	p := treeWorkload(7, 128, 64, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treesched.CompileProblem(p); err != nil {
			b.Fatal(err)
		}
	}
}

// Service benchmarks: one engine, three cache regimes.
//
//   - Cold: every request is a new problem (compiled miss + result miss).
//   - CompiledWarm: same problem, fresh solver seed per request
//     (compiled hit + result miss) — measures the compiled-instance
//     cache speedup.
//   - ResultWarm: identical request (result hit) — measures full
//     memoization.

func serviceBenchRequest(scenarioSeed int64, solverSeed uint64) *treesched.SolveRequest {
	return &treesched.SolveRequest{
		Algo:         "tree-unit",
		Scenario:     "caterpillar-backbone",
		ScenarioSeed: scenarioSeed,
		Seed:         solverSeed,
	}
}

func BenchmarkServiceSolveCold(b *testing.B) {
	e := treesched.NewEngine(treesched.EngineConfig{})
	defer e.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(ctx, serviceBenchRequest(int64(i)+1, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceSolveCompiledWarm(b *testing.B) {
	e := treesched.NewEngine(treesched.EngineConfig{})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Solve(ctx, serviceBenchRequest(1, 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(ctx, serviceBenchRequest(1, uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceSolveResultWarm(b *testing.B) {
	e := treesched.NewEngine(treesched.EngineConfig{})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Solve(ctx, serviceBenchRequest(1, 1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(ctx, serviceBenchRequest(1, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
