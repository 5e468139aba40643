package soundboost

import "fmt"

// Precision names an arithmetic mode. Float64 is the only one the
// pipeline runs; the type stays for the /v1 session request, whose
// precision field still accepts "float32", and for WithPrecision.
type Precision string

const (
	// Float64 is the pipeline's arithmetic.
	Float64 Precision = "float64"
	// Float32 is accepted and runs as Float64.
	Float32 Precision = "float32"
)

// Validate accepts the zero value and the two named precisions.
func (p Precision) Validate() error {
	switch p {
	case "", Float64, Float32:
		return nil
	}
	return fmt.Errorf("soundboost: unknown precision %q (want %q or %q)", p, Float64, Float32)
}

// WithPrecision validates p and returns the receiver: every precision
// runs the float64 pipeline.
//
// Deprecated: the pipeline has one arithmetic; drop the call.
func (a *Analyzer) WithPrecision(p Precision) (*Analyzer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
