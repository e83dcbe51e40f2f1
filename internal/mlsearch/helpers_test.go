package mlsearch

import (
	"testing"

	"repro/internal/comm"
)

func newTestWorld(t *testing.T, size int) []comm.Communicator {
	t.Helper()
	world, err := comm.NewLocal(size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, c := range world {
			c.Close()
		}
	})
	return world
}

// newTestMaster runs the foreman of a hand-built world on its rank, with
// observer o (nil for none), and returns it with one dispatch lane open. The test shuts the foreman down
// when it is done with it; the cleanup does so again for a test that
// failed first, and waits for the goroutine either way.
func newTestMaster(t *testing.T, world []comm.Communicator, lay Layout, opt ForemanOptions, o *RunObserver) (*Foreman, Dispatcher) {
	t.Helper()
	f := NewForeman(world[foremanRank], lay, Config{}, opt, o)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := f.Run(); err != nil {
			t.Error(err)
		}
	}()
	t.Cleanup(func() {
		_ = f.Shutdown()
		<-done
	})
	disp, err := f.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	return f, disp
}

// runSerial is the tests' shorthand for one search on the Serial
// transport of the unified Run API.
func runSerial(cfg Config) (*SearchResult, error) {
	out, err := Run(cfg, RunOptions{Transport: Serial})
	if err != nil {
		return nil, err
	}
	return out.Results[0], nil
}
