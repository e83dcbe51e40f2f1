package mlsearch

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// Distributed (TCP) runtime with elastic membership. One operating
// system process hosts the master and the foreman — in-process ranks of
// the elastic comm world, exactly as in a Local run — and the world's
// TCP router; worker processes anywhere on the network join with
// cmd/fdworker, carrying no pre-assigned identity: the join handshake
// assigns each a fresh rank and delivers the run's Config.
// Workers may join or leave at any point, including mid-round — the
// paper's fault-tolerant dispatch (§2.2) is what makes this safe, and it
// is the property the planned Condor/screensaver workers (§5) would rely
// on.

// runTCPTransport hosts the distributed run for Run.
func runTCPTransport(cfg Config, opt RunOptions) (*RunOutcome, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("mlsearch: negative worker barrier %d", opt.Workers)
	}
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	lay := ElasticLayout()
	// Decoding validates: a Config whose welcome every worker would refuse
	// fails here, not as a join barrier nobody ever passes.
	welcome := marshalWelcome(lay, norm)
	if _, _, err := unmarshalWelcome(welcome); err != nil {
		return nil, fmt.Errorf("mlsearch: tcp run: no worker could join this run: %w", err)
	}

	// The foreman always gets an inline evaluator: a TCP run must
	// complete even if every worker disappears (degradation ladder).
	if opt.Foreman.Inline == nil {
		inline, err := NewConfigEvaluator(norm)
		if err != nil {
			return nil, err
		}
		defer inline.Close()
		opt.Foreman.Inline = inline
	}
	if opt.Foreman.Obs == nil {
		opt.Foreman.Obs = opt.Obs
	}

	// Join barrier: the master waits for opt.Workers joins before
	// starting the search (0 = start immediately).
	var joined atomic.Int64
	barrier := make(chan struct{})
	if opt.Workers == 0 {
		close(barrier)
	}
	onJoin := func(rank int) {
		if joined.Add(1) == int64(opt.Workers) {
			close(barrier)
		}
		if opt.OnMember != nil {
			opt.OnMember(rank, true)
		}
	}
	onLeave := func(rank int) {
		if opt.OnMember != nil {
			opt.OnMember(rank, false)
		}
	}

	ranks, err := comm.NewElasticTCPRouter(comm.RouterConfig{
		Addr:         opt.Addr,
		FirstDynamic: lay.FirstDynamicRank(),
		Welcome:      welcome,
		NotifyRank:   lay.Foreman,
		OnJoin:       onJoin,
		OnLeave:      onLeave,
		Obs:          opt.Foreman.Obs.Registry(),
	})
	if err != nil {
		return nil, err
	}
	// Closing the master's endpoint closes the listener, the workers'
	// connections and every hosted rank.
	defer ranks[lay.Master].Close()
	world, err := startRoles(ranks, lay, norm, opt)
	if err != nil {
		return nil, err
	}
	if addr, ok := comm.ListenAddr(ranks[lay.Master]); ok && opt.OnListen != nil {
		opt.OnListen(addr)
	}
	<-barrier
	return world.runOnce(norm, opt)
}

// ReconnectPolicy governs a worker's jittered exponential backoff when
// its connection to the master drops (or cannot be established yet).
// The zero value reconnects forever with the defaults — the right
// behaviour for a volunteer worker that should survive master restarts.
type ReconnectPolicy struct {
	// Disabled turns reconnection off: the worker serves one connection
	// and returns.
	Disabled bool
	// Base is the first backoff delay. Default 250ms.
	Base time.Duration
	// Cap bounds the backoff. Default 15s.
	Cap time.Duration
	// MaxAttempts bounds consecutive failed connection attempts; 0
	// retries forever. The counter resets after a successful join.
	MaxAttempts int
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.Base <= 0 {
		p.Base = 250 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 15 * time.Second
	}
	return p
}

// backoff returns the jittered delay before attempt n (0-based):
// uniformly random in (0, min(Cap, Base*2^n)], the "full jitter"
// scheme that avoids reconnection stampedes after a master restart.
func (p ReconnectPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.Base
	for i := 0; i < n && d < p.Cap; i++ {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	return time.Duration(1 + rng.Int63n(int64(d)))
}

// ParseReconnectPolicy parses the CLI form of a policy: "on" (defaults),
// "off", or comma-separated settings like "base=500ms,cap=30s,max=10".
func ParseReconnectPolicy(s string) (ReconnectPolicy, error) {
	var p ReconnectPolicy
	switch strings.TrimSpace(s) {
	case "", "on":
		return p, nil
	case "off":
		p.Disabled = true
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return p, fmt.Errorf("mlsearch: bad reconnect setting %q (want key=value)", part)
		}
		var err error
		switch key {
		case "base":
			p.Base, err = time.ParseDuration(val)
		case "cap":
			p.Cap, err = time.ParseDuration(val)
		case "max":
			_, err = fmt.Sscanf(val, "%d", &p.MaxAttempts)
		default:
			return p, fmt.Errorf("mlsearch: unknown reconnect setting %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("mlsearch: bad reconnect %s: %w", key, err)
		}
	}
	return p, nil
}

// ServeElastic is the distributed worker's entry point: join the master
// at addr with no pre-assigned identity, receive a rank and the run's
// Config in the handshake, and serve tasks until shutdown. When the
// connection drops — a network fault or a master restart — the worker
// reconnects under the policy's jittered exponential backoff and is
// assigned a fresh rank, resuming from the master's checkpoint state.
func ServeElastic(addr string, hooks WorkerHooks, policy ReconnectPolicy) error {
	policy = policy.withDefaults()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	for {
		c, welcome, err := comm.JoinTCP(addr)
		if err == nil {
			failures = 0
			err = serveConnection(c, welcome, hooks)
			c.Close()
			if err == nil {
				return nil // clean shutdown from the foreman
			}
		}
		if policy.Disabled {
			return err
		}
		failures++
		if policy.MaxAttempts > 0 && failures >= policy.MaxAttempts {
			return fmt.Errorf("mlsearch: giving up after %d attempts: %w", failures, err)
		}
		time.Sleep(policy.backoff(failures-1, rng))
	}
}

// serveConnection runs one joined worker session to completion. A nil
// return means the foreman sent shutdown; any error means the session
// ended abnormally (usually a dropped connection) and the caller may
// reconnect.
func serveConnection(c comm.Communicator, welcome []byte, hooks WorkerHooks) error {
	lay, run, err := unmarshalWelcome(welcome)
	if err != nil {
		return err
	}
	if hooks.OnAttach != nil {
		hooks.OnAttach(c)
	}
	return RunWorker(c, lay, run, hooks)
}
