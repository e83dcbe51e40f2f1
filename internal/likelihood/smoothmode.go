package likelihood

import "fmt"

// SmoothMode names a full-tree branch-smoothing algorithm. SmoothSweep,
// fastDNAml's sequential per-branch Newton sweep (newton.go), is the only
// one. The type, SmoothGradient, String, mlsearch.Config.SmoothMode and
// (*mlsearch.Evaluator).SetSmoothMode remain only because the benchmark
// module compiles against them (ROADMAP item 10 drops them); every entry
// point that receives a SmoothMode refuses anything but SmoothSweep
// through CheckSmoothMode.
type SmoothMode int

const (
	// SmoothSweep is the sequential per-branch Newton sweep, the only
	// smoother.
	SmoothSweep SmoothMode = iota
	// SmoothGradient names the removed simultaneous smoother;
	// CheckSmoothMode refuses it.
	SmoothGradient
)

// String names the mode as ParseSmoothMode spells it.
func (m SmoothMode) String() string {
	switch m {
	case SmoothSweep:
		return "sweep"
	case SmoothGradient:
		return "gradient"
	}
	return fmt.Sprintf("smoothmode(%d)", int(m))
}

// CheckSmoothMode refuses every SmoothMode but SmoothSweep. mlsearch's
// Config.Normalize calls it, so a run asking for another smoother fails
// before any engine or transport starts.
func CheckSmoothMode(m SmoothMode) error {
	if m != SmoothSweep {
		return fmt.Errorf("likelihood: smooth mode %v is not available: branch lengths are smoothed by the sequential Newton sweep only (simultaneous gradient smoothing was removed, see DESIGN.md §A)", m)
	}
	return nil
}

// ParseSmoothMode parses a smooth-mode spelling: "" and "sweep" are
// SmoothSweep; the gradient spellings ("gradient", "grad") get
// CheckSmoothMode's refusal, anything else an unknown-mode error.
func ParseSmoothMode(s string) (SmoothMode, error) {
	switch s {
	case "", "sweep":
		return SmoothSweep, nil
	case "gradient", "grad":
		return SmoothSweep, CheckSmoothMode(SmoothGradient)
	}
	return SmoothSweep, fmt.Errorf("likelihood: unknown smooth mode %q (want sweep)", s)
}
