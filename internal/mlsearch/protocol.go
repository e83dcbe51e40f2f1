package mlsearch

import "fmt"

// Role layout. The paper's parallel program has three core processes —
// master, foreman, and the optional monitor — plus a variable number of
// workers (§2.2). Here the three core roles always share the hosting
// process: master and foreman keep fixed ranks (workers address the
// foreman by rank, and rank 0 owns a TCP world's router), master and
// foreman exchange Go values (jobs.go), and the monitor is two
// subscribers of the foreman's event bus (monitor.go), not a rank.

// The role ranks. Workers take the ranks from firstWorkerRank on: a local
// world's are fixed when it starts, a TCP world's are handed out as
// workers join.
const (
	masterRank      = 0
	foremanRank     = 1
	firstWorkerRank = 2
)

// Layout lists a world's workers.
type Layout struct {
	// Workers optimize trees. In a TCP world this is empty: workers
	// announce themselves through the transport's join handshake.
	Workers []int
}

// DefaultLayout maps a world of the given size onto the paper's layout:
// rank 0 master, rank 1 foreman, the rest workers, so the smallest world
// it maps has three ranks. Its only caller is the benchmark module, which
// keys its worker hooks by rank (StartLocal lays out 0 or more workers
// itself). The second argument selects nothing: the monitor stopped
// being a rank when it became a pair of bus subscribers. Both stay until
// the benchmark module is updated (ROADMAP item 10).
func DefaultLayout(size int, _ bool) (Layout, error) {
	if size <= firstWorkerRank {
		return Layout{}, fmt.Errorf("mlsearch: world size %d too small (need 2 + >=1 worker)", size)
	}
	var lay Layout
	for r := firstWorkerRank; r < size; r++ {
		lay.Workers = append(lay.Workers, r)
	}
	return lay, nil
}
