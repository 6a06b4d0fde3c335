package clamr

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"repro/internal/precision"
)

// TestParallelBitwiseIdentical verifies the claim the Workers option makes:
// parallel sweeps produce bit-identical state to the serial ones at every
// worker count, for both kernels and all precision modes.
func TestParallelBitwiseIdentical(t *testing.T) {
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		for _, mode := range []precision.Mode{precision.Min, precision.Full} {
			run := func(workers int) []float64 {
				cfg := Config{
					NX: 32, NY: 32, MaxLevel: 1, Kernel: kernel,
					AMRInterval: 10, Workers: workers,
				}
				r, err := New(mode, cfg, testIC(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Run(30); err != nil {
					t.Fatal(err)
				}
				return r.HeightF64()
			}
			ref := run(1)
			for _, workers := range []int{2, 3, 8} {
				got := run(workers)
				if len(got) != len(ref) {
					t.Fatalf("%v/%v workers=%d: cell counts diverged", kernel, mode, workers)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%v/%v workers=%d: cell %d differs: %x vs %x",
							kernel, mode, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// stateHash runs a short simulation and returns a digest of the full
// serialised state (mesh + h, hu, hv at storage precision), so any
// single-bit divergence between worker counts is caught.
func stateHash(t *testing.T, kernel Kernel, mode precision.Mode, workers int) [sha256.Size]byte {
	t.Helper()
	cfg := Config{
		NX: 32, NY: 32, MaxLevel: 1, Kernel: kernel,
		AMRInterval: 10, Workers: workers,
	}
	r, err := New(mode, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestParallelStateHashIdentical is the regression form of the determinism
// contract: the sha256 of the complete serialised state must be
// byte-identical at every worker count, including 0 (serial, like 1),
// counts above the pool size and above GOMAXPROCS. Mixed is the mode where
// storage and compute widths differ, so the face gather's storage-precision
// rounding of each staged flux is exercised.
func TestParallelStateHashIdentical(t *testing.T) {
	workerCounts := []int{1, 0, 2, 3, 7, runtime.GOMAXPROCS(0)}
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
			ref := stateHash(t, kernel, mode, workerCounts[0])
			for _, workers := range workerCounts[1:] {
				if got := stateHash(t, kernel, mode, workers); got != ref {
					t.Errorf("%v/%v: workers=%d state hash %x, workers=1 %x",
						kernel, mode, workers, got, ref)
				}
			}
		}
	}
}

// TestCLAMRStepZeroAlloc asserts the tentpole property: after warm-up the
// step loop allocates nothing, on both kernels, serial and pooled. The
// rebuild and amr cases adapt the mesh during warm-up. The rebuild case
// then times a workspace rebuild plus a step on the unchanged mesh:
// rebuilding the face list, flux staging and incidence lists must reuse
// their backing arrays. The amr case times a whole adaptation (flagging,
// mesh.Adapt, state remap) plus the workspace rebuild; without steps in
// between the mesh is at a fixed point and does not grow, so every buffer
// is reused.
func TestCLAMRStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kernel  Kernel
		workers int
		amr     bool
		adapt   bool
	}{
		{"face/serial", KernelFace, 1, false, false},
		{"face/pooled", KernelFace, 4, false, false},
		{"face/pooled/rebuild", KernelFace, 4, true, false},
		{"face/pooled/amr", KernelFace, 4, true, true},
		{"cell/serial", KernelCell, 1, false, false},
		{"cell/pooled", KernelCell, 4, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				NX: 32, NY: 32, MaxLevel: 1, Kernel: tc.kernel,
				AMRInterval: 0, Workers: tc.workers,
			}
			if tc.amr {
				cfg.AMRInterval = 2
			}
			s, err := NewSolver[float64, float64](cfg, testIC(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(6); err != nil { // warm pool, staging, timer cells, AMR
				t.Fatal(err)
			}
			s.cfg.AMRInterval = 0
			if tc.adapt {
				if err := s.adapt(); err != nil { // reach the fixed point
					t.Fatal(err)
				}
				s.rebuildWorkspace()
			}
			cells := s.mesh.NumCells()
			if allocs := testing.AllocsPerRun(20, func() {
				if tc.adapt {
					if err := s.adapt(); err != nil {
						t.Fatal(err)
					}
					s.rebuildWorkspace()
					return
				}
				if tc.amr {
					s.rebuildWorkspace()
				}
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state Step allocated %v objects per call", allocs)
			}
			if tc.adapt && s.mesh.NumCells() != cells {
				t.Fatalf("mesh changed from %d to %d cells without a step", cells, s.mesh.NumCells())
			}
		})
	}
}

// TestCheckHealthZeroAlloc: the periodic numerical sentinel reuses its
// mass-sum buffer, so after warm-up it allocates nothing.
func TestCheckHealthZeroAlloc(t *testing.T) {
	cfg := Config{NX: 32, NY: 32, MaxLevel: 1, Kernel: KernelFace, AMRInterval: 5}
	for name, s := range map[string]interface {
		Run(int) error
		CheckHealth() error
	}{
		"min":   must(NewSolver[float32, float32](cfg, testIC(cfg))),
		"mixed": must(NewSolver[float32, float64](cfg, testIC(cfg))),
		"full":  must(NewSolver[float64, float64](cfg, testIC(cfg))),
	} {
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := s.CheckHealth(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: CheckHealth allocated %v objects per call", name, allocs)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// BenchmarkCLAMRStep measures the steady-state step (no AMR) for both
// kernels, serial and pooled; allocs/op is the zero-allocation acceptance
// number.
func BenchmarkCLAMRStep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		kernel  Kernel
		workers int
	}{
		{"face/w1", KernelFace, 1},
		{"face/w2", KernelFace, 2},
		{"face/w4", KernelFace, 4},
		{"cell/w1", KernelCell, 1},
		{"cell/w4", KernelCell, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{NX: 128, NY: 128, MaxLevel: 0, Kernel: bc.kernel, AMRInterval: 0, Workers: bc.workers}
			s, err := NewSolver[float64, float64](cfg, testIC(cfg))
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

func BenchmarkParallelScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			cfg := Config{NX: 128, NY: 128, MaxLevel: 0, Kernel: KernelFace, AMRInterval: 0, Workers: workers}
			r, err := New(precision.Full, cfg, testIC(cfg))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
