package nn

import (
	"math/rand"
	"sync"
	"testing"

	"soundboost/internal/obs"
)

// compileAll builds one regressor per model family for the lowering
// tests.
func compileAll(t testing.TB) map[ModelKind]*Sequential {
	t.Helper()
	out := map[ModelKind]*Sequential{}
	for _, kind := range []ModelKind{ModelMLP, ModelResMLP, ModelODE} {
		net, err := NewRegressor(kind, 12, 16, 3, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out[kind] = net
	}
	return out
}

// TestNetFloat64MatchesSequential pins the network program bitwise to
// Sequential.Infer for every model family.
func TestNetFloat64MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for kind, net := range compileAll(t) {
		n64, err := Compile(net)
		if err != nil {
			t.Fatalf("%s: compile: %v", kind, err)
		}
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, 12)
			for i := range x {
				x[i] = 3 * rng.NormFloat64()
			}
			want := net.Infer(x)
			got := n64.Infer(x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d out %d: Net %v, Sequential %v", kind, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNetInferCallsBothPrecisions requires one program run to count
// exactly the nn.infer.calls of Sequential.Infer, nested residual/ODE
// passes included, at float64, the one precision the program has.
func TestNetInferCallsBothPrecisions(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() {
		if !prev {
			obs.Disable()
		}
	})
	calls := obs.Default.Counter("nn.infer.calls")
	count := func(f func()) int64 {
		before := calls.Value()
		f()
		return calls.Value() - before
	}
	wantPasses := map[ModelKind]int64{ModelMLP: 1, ModelResMLP: 3, ModelODE: 5}
	for kind, net := range compileAll(t) {
		n64, err := Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		seq := count(func() { net.Infer(make([]float64, 12)) })
		if seq != wantPasses[kind] {
			t.Fatalf("%s: Sequential.Infer counted %d, want %d", kind, seq, wantPasses[kind])
		}
		if got := count(func() { n64.Infer(make([]float64, 12)) }); got != seq {
			t.Errorf("%s: Net counted %d, Sequential %d", kind, got, seq)
		}
	}
}

func TestCompileConcurrent(t *testing.T) {
	net := compileAll(t)[ModelODE]
	n, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	want := n.Infer(x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := n.Infer(x)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent Infer diverged at %d: %g vs %g", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// opaqueLayer is a Layer implementation Compile has no lowering for.
type opaqueLayer struct{ ReLU }

func TestCompileRejectsUnknownLayer(t *testing.T) {
	net := NewSequential(NewDense(4, 4, rand.New(rand.NewSource(1))), &opaqueLayer{})
	if _, err := Compile(net); err == nil {
		t.Fatal("want error for unsupported layer, got nil")
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("want error for nil network, got nil")
	}
}

func BenchmarkInferFloat64(b *testing.B) {
	net := compileAll(b)[ModelMLP]
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Infer(x)
	}
}
