package mlsearch

// SerialDispatcher evaluates tasks in order within the calling process:
// the paper's serial fastDNAml, where "the worker process acts as a
// subroutine". It doubles as the uniprocessor baseline for the scaling
// study.
type SerialDispatcher struct {
	ev *Evaluator
}

// NewSerialDispatcher builds the in-process dispatcher for a config.
func NewSerialDispatcher(cfg Config) (*SerialDispatcher, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	ev, err := NewConfigEvaluator(norm)
	if err != nil {
		return nil, err
	}
	return &SerialDispatcher{ev: ev}, nil
}

// Close releases the dispatcher's engine.
func (d *SerialDispatcher) Close() { d.ev.Close() }

// Dispatch implements Dispatcher.
func (d *SerialDispatcher) Dispatch(tasks []Task) ([]Result, error) {
	out := make([]Result, 0, len(tasks))
	for _, t := range tasks {
		r, err := d.ev.Evaluate(t)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
