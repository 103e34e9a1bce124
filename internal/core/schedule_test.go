package core

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/lp"
	"treesched/internal/model"
	"treesched/internal/verify"
)

func TestUnitXiMatchesPaperConstants(t *testing.T) {
	// §5: ξ = 14/15 for trees (∆=6); §7: ξ = 8/9 for lines (∆=3).
	if got := UnitXi(6); math.Abs(got-14.0/15.0) > 1e-15 {
		t.Fatalf("UnitXi(6)=%g want 14/15", got)
	}
	if got := UnitXi(3); math.Abs(got-8.0/9.0) > 1e-15 {
		t.Fatalf("UnitXi(3)=%g want 8/9", got)
	}
}

func TestNarrowXiDoublingGuarantee(t *testing.T) {
	// The kill argument needs 2·ξ·hmin/((1−ξ)(1+∆²)) ≥ 2 — verify the
	// chosen ξ satisfies it across the parameter range.
	for _, delta := range []int{1, 2, 3, 6} {
		for _, hmin := range []float64{0.5, 0.25, 0.1, 0.01} {
			xi := NarrowXi(delta, hmin)
			if xi <= 0 || xi >= 1 {
				t.Fatalf("ξ=%g outside (0,1)", xi)
			}
			growth := 2 * xi * hmin / ((1 - xi) * (1 + float64(delta*delta)))
			if growth < 2-1e-9 {
				t.Fatalf("∆=%d hmin=%g: growth factor %g < 2", delta, hmin, growth)
			}
		}
	}
}

func TestNewScheduleStagesReachEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 8, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 0.25, 0.1, 0.01} {
		s := NewSchedule(m, UnitXi(m.Delta), eps)
		if math.Pow(s.Xi, float64(s.Stages)) > eps {
			t.Fatalf("ε=%g: ξ^b = %g > ε", eps, math.Pow(s.Xi, float64(s.Stages)))
		}
		if s.Stages > 1 && math.Pow(s.Xi, float64(s.Stages-1)) <= eps {
			t.Fatalf("ε=%g: b=%d not minimal", eps, s.Stages)
		}
		if s.Lambda < 1-eps-1e-12 {
			t.Fatalf("ε=%g: λ=%g below 1-ε", eps, s.Lambda)
		}
		// Thresholds are increasing and end at λ.
		for j := 1; j < len(s.Thresholds); j++ {
			if s.Thresholds[j] <= s.Thresholds[j-1] {
				t.Fatal("thresholds not increasing")
			}
		}
		if s.Thresholds[len(s.Thresholds)-1] != s.Lambda {
			t.Fatal("final threshold != λ")
		}
	}
}

func TestNewSchedulePanicsOnBadEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ε=%g accepted", eps)
				}
			}()
			NewSchedule(m, 14.0/15.0, eps)
		}()
	}
}

func TestPhase2CoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 12 + rng.Intn(20), Trees: 1 + rng.Intn(2), Demands: 5 + rng.Intn(15), Unit: true,
		}, rng)
		m, err := model.Build(p, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sched := NewSchedule(m, UnitXi(m.Delta), 0.25)
		duals, stack, err := Phase1(m, lp.Unit{}, sched, uint64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = duals
		sel := Phase2(m, stack)
		if err := CheckPhase2Coverage(m, stack, sel); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckRaisedSetsIndependent(m, stack); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDistributedPSMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 20, Resources: 2, Demands: 8, Unit: true, MaxProc: 6,
		}, rng)
		seed := uint64(trial)
		central, err := PanconesiSozioUnit(p, Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		distrib, err := DistributedPanconesiSozio(p, Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSelection(central, distrib.Result) {
			t.Fatalf("trial %d: PS distributed selection differs", trial)
		}
		if err := verify.Solution(p, distrib.Selected); err != nil {
			t.Fatal(err)
		}
	}
	// Rejections.
	tp := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, Unit: true}, rng)
	if _, err := DistributedPanconesiSozio(tp, Options{}); err == nil {
		t.Fatal("accepted tree problem")
	}
}

// scheduleGrid lists one schedule per stage base the solvers construct
// (UnitXi for every critical-set size, NarrowXi across the narrow
// height range, the single-stage λ) at a spread of ε values.
func scheduleGrid() []Schedule {
	m := &model.Model{}
	var out []Schedule
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.9} {
		for delta := 1; delta <= 8; delta++ {
			out = append(out, NewSchedule(m, UnitXi(delta), eps))
			for _, hmin := range []float64{0.5, 0.25, 0.1, 0.05, 0.01, 0.001} {
				out = append(out, NewSchedule(m, NarrowXi(delta, hmin), eps))
			}
		}
		out = append(out, NewSingleStageSchedule(m, 1/(5+eps)))
	}
	return out
}

// TestScheduleThresholdsNonDecreasing pins the precondition of Phase1's
// due-stage binary search: every schedule a solver builds has
// non-decreasing thresholds.
func TestScheduleThresholdsNonDecreasing(t *testing.T) {
	for _, s := range scheduleGrid() {
		if len(s.Thresholds) != s.Stages {
			t.Fatalf("ξ=%g: %d thresholds for %d stages", s.Xi, len(s.Thresholds), s.Stages)
		}
		for j := 1; j < len(s.Thresholds); j++ {
			if s.Thresholds[j] < s.Thresholds[j-1] {
				t.Fatalf("ξ=%g: threshold %d (%v) below threshold %d (%v)", s.Xi, j+1, s.Thresholds[j], j, s.Thresholds[j-1])
			}
		}
	}
}

// TestDueStageMatchesLinearScan compares the due-stage binary search
// with a linear scan of lp.Satisfied's comparison, probing each
// threshold's exact boundary lhs == thr·p − Tol and its float neighbours.
func TestDueStageMatchesLinearScan(t *testing.T) {
	linear := func(thr []float64, from int, lhs, p float64) int {
		j := from
		for j <= len(thr) && lhs >= thr[j-1]*p-lp.Tol {
			j++
		}
		return j
	}
	profits := []float64{1, 0.37, 3, 1e-6, 250}
	for _, s := range scheduleGrid() {
		thr := s.Thresholds
		if len(thr) > 64 {
			thr = thr[:64] // the boundaries of the long narrow schedules repeat this pattern
		}
		for _, p := range profits {
			var probes []float64
			for _, x := range thr {
				b := x*p - lp.Tol
				probes = append(probes, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
			}
			probes = append(probes, -1, 0, 2*p)
			for _, lhs := range probes {
				for from := 1; from <= len(thr)+1; from += 1 + len(thr)/7 {
					if got, want := dueStage(thr, from, lhs, p), linear(thr, from, lhs, p); got != want {
						t.Fatalf("ξ=%g p=%g lhs=%v from %d: dueStage %d, linear scan %d", s.Xi, p, lhs, from, got, want)
					}
				}
			}
		}
	}
}

// TestPhase1RejectsDecreasingThresholds: a hand-built schedule that
// breaks the due-stage precondition is refused, not silently solved.
func TestPhase1RejectsDecreasingThresholds(t *testing.T) {
	p := gen.LineProblem(gen.LineConfig{Slots: 20, Resources: 1, Demands: 6, Unit: true}, rand.New(rand.NewSource(1)))
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(m, UnitXi(m.Delta), 0.25)
	s.Thresholds[1], s.Thresholds[2] = s.Thresholds[2], s.Thresholds[1]
	if _, _, err := Phase1(m, lp.Unit{}, s, 1, nil); err == nil {
		t.Fatal("Phase1 accepted decreasing thresholds")
	}
}
