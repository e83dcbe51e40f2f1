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

// runSerial is the tests' shorthand for one search on the Serial
// transport of the unified Run API.
func runSerial(cfg Config) (*SearchResult, error) {
	out, err := Run(cfg, RunOptions{Transport: Serial})
	if err != nil {
		return nil, err
	}
	return out.Results[0], nil
}
