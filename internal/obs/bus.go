package obs

import "sync"

// Typed event bus: publishers emit typed event values; subscribers
// register handlers that fire synchronously, in subscription order, on
// the publisher's goroutine. The monitor role is a consumer of this bus
// (its line printer is an ordinary subscriber), and any process can attach extra subscribers — the status server's
// snapshot state, a test assertion, a future remote exporter — without
// touching the publisher.

// Bus fans typed events out to subscribers. The zero value is unusable;
// call NewBus. A nil *Bus accepts (and discards) publishes, so event
// emission sites need no sink checks.
type Bus struct {
	mu   sync.RWMutex
	subs []func(any)
}

// NewBus builds an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn for every published event and returns an
// unsubscribe function.
func (b *Bus) Subscribe(fn func(any)) func() {
	if b == nil {
		return func() {}
	}
	b.mu.Lock()
	b.subs = append(b.subs, fn)
	i := len(b.subs) - 1
	b.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			b.subs[i] = nil
			b.mu.Unlock()
		})
	}
}

// Publish delivers e to every subscriber synchronously. Nil-safe.
func (b *Bus) Publish(e any) {
	if b == nil {
		return
	}
	b.mu.RLock()
	subs := b.subs
	b.mu.RUnlock()
	for _, fn := range subs {
		if fn != nil {
			fn(e)
		}
	}
}

// SubscribeTo registers a handler for events of one concrete type,
// ignoring everything else on the bus.
func SubscribeTo[T any](b *Bus, fn func(T)) func() {
	return b.Subscribe(func(e any) {
		if v, ok := e.(T); ok {
			fn(v)
		}
	})
}
