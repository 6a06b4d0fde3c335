package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/precision"
)

// TestRunMatchesCoreStudy asserts the daemon's execution path produces the
// same deterministic measurables as the direct study runners cmd/paperbench
// uses — the acceptance contract for serving cached results in their place.
func TestRunMatchesCoreStudy(t *testing.T) {
	spec := clamrTestSpec()
	res, err := Run(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.CLAMRConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunCLAMR(precision.Full, cfg, spec.Steps, spec.LineCutN)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != want.Counters {
		t.Errorf("counters diverge:\n runner %+v\n core   %+v", res.Counters, want.Counters)
	}
	if res.Cells != want.Cells || res.StateBytes != want.StateBytes ||
		res.CheckpointBytes != want.CheckpointBytes {
		t.Errorf("size measurables diverge: %+v vs %+v", res, want)
	}
	if res.MassError == nil || *res.MassError != want.MassError {
		t.Errorf("mass error diverges: %v vs %v", res.MassError, want.MassError)
	}
	if res.LineCut == nil || len(res.LineCut.Y) != len(want.LineCut.Y) {
		t.Fatalf("line cut missing or mis-sized")
	}
	for i := range want.LineCut.Y {
		if res.LineCut.Y[i] != want.LineCut.Y[i] {
			t.Fatalf("line cut diverges at %d: %g vs %g", i, res.LineCut.Y[i], want.LineCut.Y[i])
		}
	}
}

// TestRunDeterministicAcrossReruns asserts the deterministic result portion
// (and the state hash) is identical on rerun — the property that makes
// content-addressed caching sound.
func TestRunDeterministicAcrossReruns(t *testing.T) {
	for _, spec := range []ExperimentSpec{clamrTestSpec(), selfTestSpec()} {
		a, err := Run(context.Background(), spec, RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", spec.App, err)
		}
		b, err := Run(context.Background(), spec, RunOpts{Workers: 3})
		if err != nil {
			t.Fatalf("%s rerun: %v", spec.App, err)
		}
		ha, err := a.ResultHash()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.ResultHash()
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Errorf("%s: result hash changed across reruns/worker counts: %s vs %s", spec.App, ha, hb)
		}
		if a.StateHash != b.StateHash || a.StateHash == "" {
			t.Errorf("%s: state hash changed: %q vs %q", spec.App, a.StateHash, b.StateHash)
		}
	}
}

// TestRunLaneCountsIdentical asserts the lane-count contract at the runner
// surface: Workers 0 (GOMAXPROCS, resolved by Run) and every explicit lane
// count produce the same deterministic measurables as the single-lane run,
// for both apps at min, mixed and full. The CLAMR spec adapts every 3 steps
// and its mesh grows and shrinks over 45 steps, so the face kernel's
// incidence lists are rebuilt on meshes of changing size. SELF's
// StateBytes counts per-chunk scratch and so grows with the lane count by
// design (see Result); for SELF only Workers 0 and GOMAXPROCS must agree.
func TestRunLaneCountsIdentical(t *testing.T) {
	clamrSpec := ExperimentSpec{
		App: AppCLAMR, Steps: 45, LineCutN: 32,
		NX: 12, NY: 12, MaxLevel: 2, Kernel: "vectorized", AMRInterval: 3,
	}
	for _, base := range []ExperimentSpec{clamrSpec, selfTestSpec()} {
		for _, mode := range []string{"min", "mixed", "full"} {
			spec := base
			spec.Mode = mode
			run := func(workers int) *Result {
				res, err := Run(context.Background(), spec, RunOpts{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", spec.App, mode, workers, err)
				}
				return res
			}
			ref := run(1)
			for _, workers := range []int{0, 2, 3, 7} {
				got := run(workers)
				name := fmt.Sprintf("%s/%s workers=%d", spec.App, mode, workers)
				if got.StateHash != ref.StateHash {
					t.Errorf("%s: state hash %s, workers=1 %s", name, got.StateHash, ref.StateHash)
				}
				if got.Counters != ref.Counters {
					t.Errorf("%s: counters %+v, workers=1 %+v", name, got.Counters, ref.Counters)
				}
				if got.CheckpointBytes != ref.CheckpointBytes {
					t.Errorf("%s: checkpoint bytes %d, workers=1 %d", name, got.CheckpointBytes, ref.CheckpointBytes)
				}
				if !reflect.DeepEqual(got.MassError, ref.MassError) || !reflect.DeepEqual(got.LineCut, ref.LineCut) {
					t.Errorf("%s: mass error or line cut differs from workers=1", name)
				}
				wantBytes := ref.StateBytes
				if spec.App == AppSELF {
					if workers != 0 {
						continue
					}
					wantBytes = run(runtime.GOMAXPROCS(0)).StateBytes
				}
				if got.StateBytes != wantBytes {
					t.Errorf("%s: state bytes %d, want %d", name, got.StateBytes, wantBytes)
				}
			}
		}
	}
}

func TestRunProgressAndCancellation(t *testing.T) {
	spec := clamrTestSpec()
	var steps []int
	res, err := Run(context.Background(), spec, RunOpts{
		Progress: func(step, total int) {
			if total != spec.Steps {
				t.Fatalf("progress total = %d, want %d", total, spec.Steps)
			}
			steps = append(steps, step)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != spec.Steps || steps[len(steps)-1] != spec.Steps {
		t.Fatalf("progress saw steps %v, want 1..%d", steps, spec.Steps)
	}
	if res.SpecHash == "" {
		t.Error("result missing spec hash")
	}

	// Cancel mid-run: the error must wrap context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	_, err = Run(ctx, spec, RunOpts{
		Progress: func(step, total int) {
			if step == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestRestartThroughRunner checkpoints an experiment mid-run, resumes it
// through the runner path, and asserts the resumed run's final state hash
// matches an uninterrupted run — restart fidelity for both mini-apps.
func TestRestartThroughRunner(t *testing.T) {
	for _, full := range []ExperimentSpec{clamrTestSpec(), selfTestSpec()} {
		uninterrupted, err := Run(context.Background(), full, RunOpts{})
		if err != nil {
			t.Fatalf("%s uninterrupted: %v", full.App, err)
		}

		// Run the first half and capture its checkpoint.
		half := full
		half.Steps = full.Steps / 2
		var ckpt bytes.Buffer
		if _, err := Run(context.Background(), half, RunOpts{Checkpoint: &ckpt}); err != nil {
			t.Fatalf("%s first half: %v", full.App, err)
		}

		// Resume from the checkpoint to the full step count.
		resumed, err := Run(context.Background(), full, RunOpts{Resume: &ckpt})
		if err != nil {
			t.Fatalf("%s resume: %v", full.App, err)
		}
		if resumed.Steps != uninterrupted.Steps {
			t.Fatalf("%s: resumed to %d steps, want %d", full.App, resumed.Steps, uninterrupted.Steps)
		}
		if resumed.StateHash != uninterrupted.StateHash {
			t.Errorf("%s: restart diverged: state hash %s after resume, %s uninterrupted",
				full.App, resumed.StateHash, uninterrupted.StateHash)
		}
	}
}
