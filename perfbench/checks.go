package main

import (
	"encoding/json"
	"fmt"
	"math"

	"treesched/internal/instance"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// tol absorbs floating-point differences in profit sums and ratios.
const tol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkSolution checks one schedule against the problem it answers:
// the selection is feasible, profit is the sum over the selection, the
// dual bound is at least the profit (weak duality) and the certified
// ratio is within the schedule's own bound.
func checkSolution(p *instance.Problem, r *service.Response) error {
	if err := verify.Solution(p, r.Selected); err != nil {
		return err
	}
	if r.Scheduled != len(r.Selected) {
		return fmt.Errorf("scheduled = %d but %d instances selected", r.Scheduled, len(r.Selected))
	}
	sum := 0.0
	for _, in := range r.Selected {
		sum += in.Profit
	}
	if !near(sum, r.Profit) {
		return fmt.Errorf("profit %g is not the sum %g over selected", r.Profit, sum)
	}
	if r.DualUpperBound < r.Profit && !near(r.DualUpperBound, r.Profit) {
		return fmt.Errorf("dual upper bound %g below profit %g (weak duality)", r.DualUpperBound, r.Profit)
	}
	if r.Profit > 0 && r.CertifiedRatio > r.Bound && !near(r.CertifiedRatio, r.Bound) {
		return fmt.Errorf("certified ratio %g exceeds the bound %g", r.CertifiedRatio, r.Bound)
	}
	return nil
}

// checkReply decodes a /solve reply and checks it against p.
func checkReply(p *instance.Problem, body []byte) (*service.Response, error) {
	var r service.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	if r.Demands != len(p.Demands) {
		return nil, fmt.Errorf("reply has %d demands, problem %d", r.Demands, len(p.Demands))
	}
	return &r, checkSolution(p, &r)
}

// certified is a schedule's dual_upper_bound / profit.
func certified(r *service.Response) float64 {
	if r.Profit == 0 {
		return 0
	}
	return r.DualUpperBound / r.Profit
}
