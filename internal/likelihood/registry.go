package likelihood

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/seq"
)

// Engine registry: backends register a constructor under a name, and
// the rest of the program selects one by that name (Config.Engine, the
// -engine flag, the join welcome's engine field) without importing the
// implementation. Registration happens in init() functions, so the map
// is read-only once main starts and needs no locking.

// DefaultEngine is the backend used when no name is given: the
// CLV-cached production engine.
const DefaultEngine = "cached"

// EngineOptions carry the construction-time knobs every factory
// receives. Factories ignore options their backend has no use for (the
// reference engine ignores Threads, for example) — the capability
// helpers keep the rest of the program honest about what stuck.
type EngineOptions struct {
	// Precision must be Float64 (the zero value); NewEngine refuses any
	// other. The field remains only because the benchmark module sets it
	// (ROADMAP item 10).
	Precision Precision
	// Threads is the kernel thread count for backends that shard
	// (values < 1 mean 1).
	Threads int
}

// Factory constructs one engine over a fixed model and data set.
type Factory func(m model.Model, p *seq.Patterns, opt EngineOptions) (Engine, error)

var engineFactories = map[string]Factory{}

// Register adds a backend under name. It panics on a duplicate name —
// registration is an init-time programming act, not a runtime input.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("likelihood: Register with empty name or nil factory")
	}
	if _, dup := engineFactories[name]; dup {
		panic("likelihood: duplicate engine registration: " + name)
	}
	engineFactories[name] = f
}

// Engines lists the registered backend names, sorted.
func Engines() []string {
	out := make([]string, 0, len(engineFactories))
	for name := range engineFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParseEngine normalizes an engine name: "" selects DefaultEngine, and
// unknown names error with the available set.
func ParseEngine(name string) (string, error) {
	if name == "" {
		return DefaultEngine, nil
	}
	if _, ok := engineFactories[name]; !ok {
		return "", fmt.Errorf("likelihood: unknown engine %q (available: %v)", name, Engines())
	}
	return name, nil
}

// NewEngine constructs the named backend ("" selects DefaultEngine).
func NewEngine(name string, m model.Model, p *seq.Patterns, opt EngineOptions) (Engine, error) {
	if err := CheckPrecision(opt.Precision); err != nil {
		return nil, err
	}
	name, err := ParseEngine(name)
	if err != nil {
		return nil, err
	}
	return engineFactories[name](m, p, opt)
}

func init() {
	Register("cached", func(m model.Model, p *seq.Patterns, opt EngineOptions) (Engine, error) {
		e, err := New(m, p)
		if err != nil {
			return nil, err
		}
		if opt.Threads > 1 {
			e.SetThreads(opt.Threads)
		}
		return e, nil
	})
	Register("reference", func(m model.Model, p *seq.Patterns, opt EngineOptions) (Engine, error) {
		return NewReference(m, p)
	})
}
