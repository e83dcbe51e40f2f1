package mlsearch

import "fmt"

// Role layout. The paper's parallel program has three core processes —
// master, foreman, and the optional monitor — plus a variable number of
// workers (§2.2). Here the three core roles always share the hosting
// process: master and foreman keep their ranks (workers address the
// foreman by rank, and rank 0 owns a TCP world's router), master and
// foreman exchange Go values (jobs.go), and the monitor is two
// subscribers of the foreman's event bus (monitor.go), not a rank.

// Layout assigns roles to ranks.
type Layout struct {
	// Master generates and compares trees.
	Master int
	// Foreman dispatches trees to workers.
	Foreman int
	// Workers optimize trees. In an elastic layout this is the initial
	// membership (usually empty); workers announce themselves through the
	// transport's join handshake.
	Workers []int
	// Elastic marks a layout whose worker set changes at runtime: the
	// foreman folds TagJoin/TagLeave transport messages into its
	// membership instead of requiring Workers up front.
	Elastic bool
}

// ElasticLayout is the distributed runtime's layout: fixed role ranks for
// the master (0) and foreman (1), with workers assigned ranks dynamically
// as they join.
func ElasticLayout() Layout {
	return Layout{Master: 0, Foreman: 1, Elastic: true}
}

// FirstDynamicRank is the first rank the transport may assign to a
// joining worker: one past the highest role rank.
func (l Layout) FirstDynamicRank() int {
	return max(l.Master, l.Foreman) + 1
}

// DefaultLayout maps a world of the given size onto the paper's layout:
// rank 0 master, rank 1 foreman, the rest workers, so the smallest world
// has three ranks. The second argument selects nothing: the monitor stopped
// being a rank when it became a pair of bus subscribers, and the parameter
// stays only until its callers are updated (ROADMAP item 6).
func DefaultLayout(size int, _ bool) (Layout, error) {
	lay := Layout{Master: 0, Foreman: 1}
	if size < 3 {
		return Layout{}, fmt.Errorf("mlsearch: world size %d too small (need 2 + >=1 worker)", size)
	}
	for r := 2; r < size; r++ {
		lay.Workers = append(lay.Workers, r)
	}
	return lay, nil
}

// Validate checks the layout for overlaps and missing workers.
func (l Layout) Validate() error {
	seen := map[int]string{}
	claim := func(rank int, role string) error {
		if rank < 0 {
			return fmt.Errorf("mlsearch: negative rank for %s", role)
		}
		if prev, ok := seen[rank]; ok {
			return fmt.Errorf("mlsearch: rank %d assigned to both %s and %s", rank, prev, role)
		}
		seen[rank] = role
		return nil
	}
	if err := claim(l.Master, "master"); err != nil {
		return err
	}
	if err := claim(l.Foreman, "foreman"); err != nil {
		return err
	}
	if len(l.Workers) == 0 && !l.Elastic {
		return fmt.Errorf("mlsearch: layout has no workers")
	}
	for _, w := range l.Workers {
		if err := claim(w, "worker"); err != nil {
			return err
		}
	}
	return nil
}
