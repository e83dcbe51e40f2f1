package mlsearch

import (
	"bufio"
	"fmt"
	"io"
	"testing"

	"repro/internal/comm"
)

// writeFlatCheckpoint writes the retired single-jumble restart format
// ("fastdnaml-checkpoint v1" + the block body), which LoadResume and
// ReadCheckpoint must keep reading.
func writeFlatCheckpoint(w io.Writer, cp Checkpoint) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "fastdnaml-checkpoint v1")
	if err := writeCheckpointBody(bw, cp); err != nil {
		return err
	}
	return bw.Flush()
}

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

// newTestMaster is the master side of a hand-built world: the job mux
// over rank 0 and one dispatch lane through it.
func newTestMaster(t *testing.T, world []comm.Communicator, lay Layout) (*JobMux, Dispatcher) {
	t.Helper()
	mux, err := NewJobMux(world[lay.Master], lay)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := mux.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	return mux, disp
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
