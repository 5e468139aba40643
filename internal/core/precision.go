package soundboost

import (
	"fmt"

	"soundboost/internal/triage"
)

// Precision selects the arithmetic of the signature/inference hot path.
// The zero value means Float64, the bitwise-pinned default: batch,
// stream and fleet paths all produce bit-identical features and
// verdicts under it, and every equivalence test in the repo pins that.
// Float32 is the opt-in fast path. Both run one implementation, generic
// over the element type (FFT, signature kernel, network program,
// triage kernel); the precision only picks its instantiation. Float32
// is verified corpus-wide to produce identical verdicts within the
// documented per-feature tolerance (see DESIGN.md, "Precision &
// tolerance contract").
type Precision string

const (
	// Float64 is the exact default.
	Float64 Precision = "float64"
	// Float32 is the opt-in single-precision fast path.
	Float32 Precision = "float32"
)

// Float32Tolerance is the documented per-feature absolute error bound
// of the float32 path relative to float64, on normalized (log-domain)
// signature features. Measured corpus-wide by the equivalence suite
// with an order-of-magnitude safety margin; see DESIGN.md.
const Float32Tolerance = 1e-3

// ParsePrecision converts a wire/flag string to a Precision. The empty
// string parses as Float64.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", Float64:
		return Float64, nil
	case Float32:
		return Float32, nil
	}
	return "", fmt.Errorf("soundboost: unknown precision %q (want %q or %q)", s, Float64, Float32)
}

// validate accepts the zero value and the two named precisions.
func (p Precision) validate() error {
	switch p {
	case "", Float64, Float32:
		return nil
	}
	return fmt.Errorf("soundboost: unknown precision %q (want %q or %q)", p, Float64, Float32)
}

// Tolerance returns the documented per-feature error bound of the
// precision mode: 0 for the exact float64 default, Float32Tolerance
// for the float32 fast path.
func (p Precision) Tolerance() float64 {
	if p == Float32 {
		return Float32Tolerance
	}
	return 0
}

// String returns the wire spelling, with the zero value rendered as
// the float64 default.
func (p Precision) String() string {
	if p == "" {
		return string(Float64)
	}
	return string(p)
}

// TriageFeatures returns the triage feature kernel of fc instantiated at
// the precision — the one place the batch screen and the stream engine
// pick it.
func (p Precision) TriageFeatures(fc triage.FeatureConfig) func(audio []float64, rate float64, imu []triage.IMUPoint, gps []triage.GPSPoint) []float64 {
	if p == Float32 {
		return fc.Features32
	}
	return fc.Features
}
