package likelihood

import "fmt"

// Precision names a CLV storage format. Float64 is the only one: CLVs
// are stored and combined in double precision and rescaled against
// underflow (paper §2.1), the same as fastDNAml. The type, Float32,
// String, PrecisionReporter, EngineOptions.Precision and
// mlsearch.Config.Precision remain only because the benchmark module
// compiles against them (ROADMAP item 10 drops them); every entry point
// that receives a Precision refuses anything but Float64 through
// CheckPrecision.
type Precision uint8

const (
	// Float64 stores CLVs as float64, the only format.
	Float64 Precision = iota
	// Float32 names the removed float32 CLV storage; CheckPrecision
	// refuses it.
	Float32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	}
	return fmt.Sprintf("Precision(%d)", uint8(p))
}

// CheckPrecision refuses every Precision but Float64. NewEngine and
// mlsearch's Config.Normalize both call it, so a run asking for another
// format fails before any engine or transport starts.
func CheckPrecision(p Precision) error {
	if p != Float64 {
		return fmt.Errorf("likelihood: precision %v is not available: CLVs are float64 only (float32 storage was removed, see DESIGN.md §A)", p)
	}
	return nil
}

// ParsePrecision parses a precision spelling: "", "64", "double",
// "float64" and "f64" are Float64; the float32 spellings ("32",
// "single", "float32", "f32") get CheckPrecision's refusal, anything
// else an unknown-precision error.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "64", "double", "float64", "f64":
		return Float64, nil
	case "32", "single", "float32", "f32":
		return Float64, CheckPrecision(Float32)
	}
	return Float64, fmt.Errorf("likelihood: unknown precision %q (want float64)", s)
}
