package mlsearch

import (
	"fmt"

	"repro/internal/comm"
)

// The master (paper §2.2): "generates and compares trees. It generates
// new tree topologies (in steps 2-5) and sends these trees to the
// foreman. It receives back from the foreman the best tree at the end of
// each round of comparison."

// ForemanDispatcher routes task batches through the foreman, implementing
// Dispatcher for the parallel runtime.
type ForemanDispatcher struct {
	c   comm.Communicator
	lay Layout

	round uint64
}

// NewForemanDispatcher builds the master-side dispatcher.
func NewForemanDispatcher(c comm.Communicator, lay Layout) (*ForemanDispatcher, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if c.Rank() != lay.Master {
		return nil, fmt.Errorf("mlsearch: dispatcher on rank %d, layout says master is %d", c.Rank(), lay.Master)
	}
	return &ForemanDispatcher{c: c, lay: lay}, nil
}

// Dispatch implements Dispatcher: one batch to the foreman, one reply
// back, with the best task's tree re-attached to its stats entry.
func (d *ForemanDispatcher) Dispatch(tasks []Task) ([]Result, error) {
	d.round++
	batch := roundBatch{Round: d.round, Tasks: tasks}
	if err := d.c.Send(d.lay.Foreman, comm.TagControl, marshalRoundBatch(batch)); err != nil {
		return nil, fmt.Errorf("mlsearch: master send: %w", err)
	}
	msg, err := d.c.Recv(d.lay.Foreman, comm.TagControl)
	if err != nil {
		return nil, fmt.Errorf("mlsearch: master receive: %w", err)
	}
	reply, err := unmarshalRoundReply(msg.Data)
	if err != nil {
		return nil, err
	}
	if reply.Round != d.round {
		return nil, fmt.Errorf("mlsearch: reply for round %d, expected %d", reply.Round, d.round)
	}
	out := make([]Result, len(reply.Stats))
	for i, r := range reply.Stats {
		if r.TaskID == reply.Best.TaskID && r.Newick == "" {
			r.Newick = reply.Best.Newick
		}
		out[i] = r
	}
	return out, nil
}

// Shutdown tells the foreman to stop, which cascades to workers and the
// monitor.
func (d *ForemanDispatcher) Shutdown() error {
	return d.c.Send(d.lay.Foreman, comm.TagShutdown, nil)
}
