package mlsearch

import (
	"fmt"
	"sort"

	"repro/internal/tree"
)

// User-tree evaluation: fastDNAml's user-tree mode scores a set of given
// topologies instead of searching (the original's limitation on "the
// number of user trees" was removed per §2.1). Each tree's branch lengths
// are optimized and its log-likelihood reported, so competing hypotheses
// can be ranked under the same model and data.

// UserTreeResult is one scored user tree.
type UserTreeResult struct {
	// Index is the tree's position in the input.
	Index int
	// Newick is the optimized tree.
	Newick string
	// LnL is the optimized log-likelihood.
	LnL float64
	// DiffFromBest is LnL minus the best tree's LnL (0 for the best).
	DiffFromBest float64
}

// EvaluateUserTrees optimizes and ranks the given trees through a
// dispatcher (serial or parallel); results come back sorted best-first.
func EvaluateUserTrees(cfg Config, trees []*tree.Tree, disp Dispatcher) ([]UserTreeResult, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("mlsearch: no user trees")
	}
	tasks := make([]Task, len(trees))
	for i, t := range trees {
		if err := t.Validate(true); err != nil {
			return nil, fmt.Errorf("mlsearch: user tree %d: %w", i+1, err)
		}
		if got := t.NumLeaves(); got != len(norm.Taxa) {
			return nil, fmt.Errorf("mlsearch: user tree %d covers %d of %d taxa", i+1, got, len(norm.Taxa))
		}
		tasks[i] = Task{
			ID:         uint64(i + 1),
			Round:      1,
			Newick:     t.Newick(),
			LocalTaxon: -1,
			Passes:     int32(norm.FullSmoothPasses),
		}
	}
	results, err := disp.Dispatch(tasks)
	if err != nil {
		return nil, err
	}
	if len(results) != len(tasks) {
		return nil, fmt.Errorf("mlsearch: %d results for %d user trees", len(results), len(tasks))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].TaskID < results[j].TaskID })

	out := make([]UserTreeResult, len(results))
	best := results[0].LnL
	for _, r := range results {
		if r.LnL > best {
			best = r.LnL
		}
	}
	for i, r := range results {
		out[i] = UserTreeResult{
			Index:        int(r.TaskID) - 1,
			Newick:       r.Newick,
			LnL:          r.LnL,
			DiffFromBest: r.LnL - best,
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LnL != out[j].LnL {
			return out[i].LnL > out[j].LnL
		}
		return out[i].Index < out[j].Index
	})
	return out, nil
}
