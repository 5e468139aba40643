package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Net is an inference-only lowering of a trained Sequential: flat
// row-major weight slabs walked by tight component loops, with pooled
// activation scratch so concurrent Infer calls never contend or
// allocate per layer. It is bitwise equal to Sequential.Infer (same
// bias-first, index-order accumulation and the same activations).
// Training and the LSTM stay on the Layer interface.
type Net struct {
	in, out int
	ops     []op
	maxDim  int   // widest activation across the program
	passes  int64 // Sequential.Infer calls one run stands for
	scratch sync.Pool
}

// op is one lowered layer; kind selects which fields are used.
type op struct {
	kind    opKind
	in, out int
	w       []float64 // dense: row-major out x in
	b       []float64 // dense bias
	inner   *Net      // skip: sub-program f
	steps   int       // skip: forward-Euler steps
	h       float64   // skip: step size
}

type opKind uint8

const (
	opDense opKind = iota
	opReLU
	opTanh
	// opSkip applies x += h*f(x) steps times: an ODEBlock, or a
	// Residual as one step with h = 1 (1*y == y exactly, so the sum
	// rounds like x + f(x)).
	opSkip
)

// Compile lowers a trained Sequential into a Net. It understands the
// concrete layer set NewRegressor emits (Dense, ReLU, Tanh, Residual,
// ODEBlock); any other Layer implementation is an error.
func Compile(s *Sequential) (*Net, error) {
	if s == nil {
		return nil, fmt.Errorf("nn: compile nil network")
	}
	n := &Net{in: -1, out: -1, passes: 1}
	for i, l := range s.Layers {
		switch v := l.(type) {
		case *Dense:
			n.ops = append(n.ops, op{kind: opDense, in: v.In, out: v.Out, w: slices.Clone(v.W), b: slices.Clone(v.B)})
			if n.in < 0 {
				n.in = v.In
			}
			n.out = v.Out
		case *ReLU:
			n.ops = append(n.ops, op{kind: opReLU})
		case *Tanh:
			n.ops = append(n.ops, op{kind: opTanh})
		case *Residual:
			inner, err := Compile(v.Inner)
			if err != nil {
				return nil, fmt.Errorf("nn: residual layer %d: %w", i, err)
			}
			n.ops = append(n.ops, op{kind: opSkip, inner: inner, steps: 1, h: 1})
			n.passes += inner.passes
		case *ODEBlock:
			inner, err := Compile(v.F)
			if err != nil {
				return nil, fmt.Errorf("nn: ODE layer %d: %w", i, err)
			}
			n.ops = append(n.ops, op{kind: opSkip, inner: inner, steps: v.Steps, h: v.H})
			n.passes += int64(v.Steps) * inner.passes
		default:
			return nil, fmt.Errorf("nn: cannot lower layer %d (%T)", i, l)
		}
	}
	if n.in < 0 {
		return nil, fmt.Errorf("nn: network has no dense layers")
	}
	n.maxDim = n.widest(n.in)
	n.scratch.New = func() any {
		buf := make([]float64, 2*n.maxDim)
		return &buf
	}
	return n, nil
}

// widest computes the maximum activation width of the program starting
// from an input of width in, including sub-programs.
func (n *Net) widest(in int) int {
	widest, dim := in, in
	for _, o := range n.ops {
		switch o.kind {
		case opDense:
			dim = o.out
		case opSkip:
			widest = max(widest, o.inner.widest(dim))
		}
		widest = max(widest, dim)
	}
	return widest
}

// InDim and OutDim report the compiled input/output widths.
func (n *Net) InDim() int  { return n.in }
func (n *Net) OutDim() int { return n.out }

// Infer runs one sample through the program and returns a fresh output
// slice. It is safe for concurrent use; all intermediate activations
// live on pooled scratch. Like Sequential.Infer it counts one
// nn.infer.calls per (nested) sequential pass.
func (n *Net) Infer(x []float64) []float64 {
	inferCalls.Add(n.passes)
	bufp := n.scratch.Get().(*[]float64)
	defer n.scratch.Put(bufp)
	cur := (*bufp)[:len(x)]
	copy(cur, x)
	cur = n.run(cur, (*bufp)[n.maxDim:])
	return append([]float64(nil), cur...)
}

// run executes the program in place over cur, using tmp (maxDim wide)
// for dense outputs. It returns the final activation, which aliases
// either cur or tmp.
func (n *Net) run(cur, tmp []float64) []float64 {
	for _, o := range n.ops {
		switch o.kind {
		case opDense:
			out := tmp[:o.out]
			for r := range out {
				sum := o.b[r]
				row := o.w[r*o.in : (r+1)*o.in]
				for i, xi := range cur[:o.in] {
					sum += row[i] * xi
				}
				out[r] = sum
			}
			cur, tmp = out, cur[:cap(cur)]
		case opReLU:
			for i, v := range cur {
				if !(v > 0) {
					cur[i] = 0
				}
			}
		case opTanh:
			for i, v := range cur {
				cur[i] = math.Tanh(v)
			}
		case opSkip:
			inner := o.inner
			ibufp := inner.scratch.Get().(*[]float64)
			for s := 0; s < o.steps; s++ {
				icur := (*ibufp)[:len(cur)]
				copy(icur, cur)
				fx := inner.run(icur, (*ibufp)[inner.maxDim:])
				for i := range cur {
					cur[i] += o.h * fx[i]
				}
			}
			inner.scratch.Put(ibufp)
		}
	}
	return cur
}
