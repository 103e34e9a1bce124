package core

import "sort"

// Algorithm is one row of Algorithms: a solver on the compiled form,
// plus the options that can change what it returns. Every consumer that
// maps a name to a solver — schedtool, the service, sessions, the
// benches, treesched.Solve — reads this table and nothing else.
type Algorithm struct {
	// Run solves c. The DistributedResult is non-nil exactly for the
	// message-passing drivers; its Result is the returned Result.
	Run func(c *Compiled, opts Options) (*Result, *DistributedResult, error)
	// Seeded reports that Epsilon and Seed can change the result.
	Seeded bool
	// Distributed marks the message-passing drivers, the only rows that
	// read FixedRounds.
	Distributed bool
	// Budgeted reports that MaxNodes can change the result (exact
	// search). Sessions expose no budget, so they serve no such row.
	Budgeted bool
}

// Algorithms is the algorithm table, keyed by the schedtool/service
// name. Lookups are map reads, cheap enough for per-request validation.
var Algorithms = map[string]Algorithm{
	"tree-unit":   {Run: central((*Compiled).TreeUnit), Seeded: true},
	"line-unit":   {Run: central((*Compiled).LineUnit), Seeded: true},
	"narrow":      {Run: central((*Compiled).NarrowOnly), Seeded: true},
	"arbitrary":   {Run: central((*Compiled).Arbitrary), Seeded: true},
	"sequential":  {Run: central((*Compiled).Sequential)},
	"seq-line":    {Run: central((*Compiled).SequentialLine)},
	"exact":       {Run: central((*Compiled).Exact), Budgeted: true},
	"greedy":      {Run: central((*Compiled).Greedy)},
	"ps":          {Run: central((*Compiled).PanconesiSozioUnit), Seeded: true},
	"dist-unit":   {Run: distributed((*Compiled).DistributedUnit), Seeded: true, Distributed: true},
	"dist-narrow": {Run: distributed((*Compiled).DistributedNarrow), Seeded: true, Distributed: true},
	"dist-ps":     {Run: distributed((*Compiled).DistributedPanconesiSozio), Seeded: true, Distributed: true},
}

// AlgorithmNames returns the names of Algorithms, sorted.
func AlgorithmNames() []string {
	out := make([]string, 0, len(Algorithms))
	for name := range Algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func central(f func(*Compiled, Options) (*Result, error)) func(*Compiled, Options) (*Result, *DistributedResult, error) {
	return func(c *Compiled, opts Options) (*Result, *DistributedResult, error) {
		r, err := f(c, opts)
		return r, nil, err
	}
}

func distributed(f func(*Compiled, Options) (*DistributedResult, error)) func(*Compiled, Options) (*Result, *DistributedResult, error) {
	return func(c *Compiled, opts Options) (*Result, *DistributedResult, error) {
		dr, err := f(c, opts)
		if err != nil {
			return nil, nil, err
		}
		return dr.Result, dr, nil
	}
}
