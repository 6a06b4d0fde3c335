package self

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"repro/internal/precision"
)

// TestParallelBitwiseIdentical verifies that every pass of the solver
// (pressure, RHS, RK update, filter) produces bit-identical state under
// any worker count — the guarantee cfg.Workers documents.
func TestParallelBitwiseIdentical(t *testing.T) {
	run := func(workers int) []float64 {
		cfg := smallConfig()
		cfg.Workers = workers
		s, err := NewSolver[float64, float64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(15); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, s.nNodes)
		for n := 0; n < s.nNodes; n++ {
			out[n] = float64(s.q[iRhoW][n])
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 7} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: node %d differs: %x vs %x", workers, i, got[i], ref[i])
			}
		}
	}
}

// selfStateHash runs a short simulation and digests its checkpoint, which
// holds every bit of every conserved variable at storage precision.
func selfStateHash(t *testing.T, mode precision.Mode, workers int) [sha256.Size]byte {
	t.Helper()
	cfg := smallConfig()
	cfg.Workers = workers
	r, err := New(mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(15); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestParallelStateHashIdentical is the regression form of the determinism
// contract: a sha256 over all five conserved variables must be
// byte-identical at every worker count, including 0 (serial, like 1),
// counts above the pool size and above GOMAXPROCS, in every mode.
func TestParallelStateHashIdentical(t *testing.T) {
	for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
		ref := selfStateHash(t, mode, 1)
		for _, workers := range []int{0, 2, 3, 7, runtime.GOMAXPROCS(0)} {
			if got := selfStateHash(t, mode, workers); got != ref {
				t.Errorf("%v workers=%d state hash %x, workers=1 %x", mode, workers, got, ref)
			}
		}
	}
}

// TestSELFStepZeroAlloc asserts the tentpole property: after warm-up the
// RK3 step (3 RHS evaluations + update + filter) allocates nothing, serial
// and pooled.
func TestSELFStepZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "serial", 4: "pooled"}[workers]
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Workers = workers
			s, err := NewSolver[float64, float64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(2); err != nil { // warm pool and timer cells
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state Step allocated %v objects per call", allocs)
			}
		})
	}
}

// BenchmarkSELFStep measures the steady-state RK3 step; allocs/op is the
// zero-allocation acceptance number.
func BenchmarkSELFStep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "w1", 4: "w4"}[workers], func(b *testing.B) {
			cfg := Config{Elements: 5, Order: 6, Workers: workers}
			s, err := NewSolver[float64, float64](cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(2); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestParallelSinglePrecision(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	s, err := NewSolver[float32, float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.MaxAbsW() <= 0 {
		t.Error("parallel single-precision run produced no motion")
	}
}

func BenchmarkParallelRHS(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "w1", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			cfg := Config{Elements: 5, Order: 6, Workers: workers}
			s, err := NewSolver[float64, float64](cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
