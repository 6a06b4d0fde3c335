package clamr

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/precision"
)

// TestRestartBitExact: run → checkpoint → load → continue must match an
// uninterrupted run bitwise (the checkpoint stores state at full storage
// width and the mesh exactly, and dt is recomputed from state). The resume
// runs single-lane and on three lanes — the restored mesh follows the
// solver's lane budget — and must reach the same state hash either way.
func TestRestartBitExact(t *testing.T) {
	digest := func(r Runner) [sha256.Size]byte {
		var buf bytes.Buffer
		if _, err := r.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(buf.Bytes())
	}
	for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
		cfg := testConfig(KernelFace, 1)
		cfg.AMRInterval = 7 // odd cadence so adaptation straddles the split

		straight, err := New(mode, cfg, testIC(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := straight.Run(50); err != nil {
			t.Fatal(err)
		}

		first, err := New(mode, cfg, testIC(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := first.Run(30); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := first.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		ckpt := buf.Bytes()

		want := digest(straight)
		for _, workers := range []int{1, 3} {
			lanes := cfg
			lanes.Workers = workers
			resumed, err := Load(mode, lanes, bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			if resumed.StepCount() != 30 || resumed.Time() != first.Time() {
				t.Fatalf("%v workers=%d: restored step=%d time=%g, want 30/%g",
					mode, workers, resumed.StepCount(), resumed.Time(), first.Time())
			}
			if err := resumed.Run(20); err != nil {
				t.Fatal(err)
			}

			hs, hr := straight.HeightF64(), resumed.HeightF64()
			if len(hs) != len(hr) {
				t.Fatalf("%v workers=%d: cell counts diverged %d vs %d", mode, workers, len(hs), len(hr))
			}
			for i := range hs {
				if hs[i] != hr[i] {
					t.Fatalf("%v workers=%d: cell %d differs after restart: %x vs %x", mode, workers, i, hs[i], hr[i])
				}
			}
			if got := digest(resumed); got != want {
				t.Errorf("%v workers=%d: resumed state hash %x, uninterrupted %x", mode, workers, got, want)
			}
		}
	}
}

func TestRestartErrors(t *testing.T) {
	cfg := testConfig(KernelFace, 1)
	r, err := New(precision.Full, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := Load(precision.Full, cfg, bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	// MaxLevel too small for the stored cells.
	small := cfg
	small.MaxLevel = 0
	if _, err := Load(precision.Full, small, bytes.NewReader(good)); err == nil {
		t.Error("checkpoint with deeper cells than MaxLevel accepted")
	}
	// Mismatched grid makes the cell list invalid.
	wrong := cfg
	wrong.NX = 7
	if _, err := Load(precision.Full, wrong, bytes.NewReader(good)); err == nil {
		t.Error("checkpoint restored onto a different grid")
	}
	if _, err := Load(precision.Half, cfg, bytes.NewReader(good)); err == nil {
		t.Error("half-mode restart accepted")
	}
}

// TestRestartPromotion: a single-precision checkpoint may restart in full
// precision (values widen exactly); the run continues stably.
func TestRestartPromotion(t *testing.T) {
	cfg := testConfig(KernelFace, 1)
	r, err := New(precision.Min, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(25); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	promoted, err := Load(precision.Full, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := promoted.Run(25); err != nil {
		t.Fatal(err)
	}
	if drift := promoted.MassError(); drift > 1e-11 {
		t.Errorf("promoted restart mass drift %g", drift)
	}
}
