package runner

import (
	"bytes"
	"context"
	"testing"
)

// goldenCase pins the deterministic outcome of one small spec across
// versions of the code. The values were recorded before the mesh index and
// adaptation were rewritten; any change to cell order, neighbor lists, the
// remap or a global sum shows up here even when every lane count of one
// build still agrees with every other.
type goldenCase struct {
	name string
	spec ExperimentSpec
	// resumeAt, when positive, runs the spec to this step, checkpoints, and
	// resumes to spec.Steps from the checkpoint.
	resumeAt   int
	stateHash  string
	resultHash string
	// stateBytes is the tracked CLAMR footprint (0 = not pinned: SELF's
	// counts per-chunk scratch and so depends on the lane count).
	stateBytes uint64
}

// goldenCLAMR adapts every 3 steps over 45 steps on a 12² grid with two
// AMR levels: the mesh refines around the dam wall, then coarsens behind
// the outgoing wave, so Adapt exercises refine, coarsen and copy.
func goldenCLAMR(mode, kernel string) ExperimentSpec {
	return ExperimentSpec{
		App: AppCLAMR, Mode: mode, Steps: 45, LineCutN: 32,
		NX: 12, NY: 12, MaxLevel: 2, Kernel: kernel, AMRInterval: 3,
	}
}

func goldenSELF(mode string) ExperimentSpec {
	return ExperimentSpec{
		App: AppSELF, Mode: mode, Steps: 4, LineCutN: 16,
		Elements: 2, Order: 3, MathMode: "intel-native",
	}
}

var goldenCases = []goldenCase{
	{
		name: "clamr/min", spec: goldenCLAMR("min", "vectorized"),
		stateHash:  "4ca5acbcdc20005b0d1d63f1bf88c57822ef73684de0db7763dffb4f9426ff82",
		resultHash: "1c388f0a11c3c082e0709d5ccf36761ea43d1d33981f8c05456fd66ee1732d62",
		stateBytes: 105768,
	},
	{
		name: "clamr/mixed", spec: goldenCLAMR("mixed", "vectorized"),
		stateHash:  "23ea2148cd2b6221ca5ba248698bdced9b426c296b257748b1d828fca4aa5c25",
		resultHash: "5d07778da79116fed1717af24ad510e0884fd7b278af26a68b064a48d5823690",
		stateBytes: 124392,
	},
	{
		name: "clamr/full", spec: goldenCLAMR("full", "vectorized"),
		stateHash:  "95a20baab7caaf86c52ada227efe83e8b5db738cee983472fdb4be472b1d39b9",
		resultHash: "b847b5fef056f678d2e0e8e921715fc086e29f283ca78f50bdc336e3be85a00e",
		stateBytes: 160680,
	},
	{
		name: "clamr/full/unvectorized", spec: goldenCLAMR("full", "unvectorized"),
		stateHash:  "44c93835b732bd68221b327ba740ae567529fa1da89232cd8a8b0358a388436f",
		resultHash: "9eb0bef83dd86526789b55ed860a90ccafd076f92ab13c9ab82e189e22f9b1f7",
		stateBytes: 160680,
	},
	{
		name: "clamr/mixed/resume", spec: goldenCLAMR("mixed", "vectorized"), resumeAt: 22,
		stateHash:  "23ea2148cd2b6221ca5ba248698bdced9b426c296b257748b1d828fca4aa5c25",
		resultHash: "237c9cba78a87636aac2124abe79fde36000a713f22d94cba08c842f956a37d1",
		stateBytes: 124392,
	},
	{
		name: "self/min", spec: goldenSELF("min"),
		stateHash:  "28a7e048888f52419533046ba6bfb3c8d96a08c7fcc3f41b81f0de1abdfd548f",
		resultHash: "f7e301f93486cf688078e27d78136d696251f9640b42ee898a3d638e8ddc3470",
	},
	{
		name: "self/full", spec: goldenSELF("full"),
		stateHash:  "e37f8613c26da7d717cbc3ce4b5086d790cbb9f72d373617eecbe2c4f4c6c91b",
		resultHash: "47773008d12898f28168226d971337787c9690e4d9292c37b963ad7b570745ec",
	},
}

// runGolden executes one golden case at the given lane count.
func runGolden(t *testing.T, gc goldenCase, workers int) *Result {
	t.Helper()
	opts := RunOpts{Workers: workers}
	if gc.resumeAt > 0 {
		first := gc.spec
		first.Steps = gc.resumeAt
		var ckpt bytes.Buffer
		if _, err := Run(context.Background(), first, RunOpts{Workers: workers, Checkpoint: &ckpt}); err != nil {
			t.Fatalf("%s: first leg: %v", gc.name, err)
		}
		opts.Resume = &ckpt
	}
	res, err := Run(context.Background(), gc.spec, opts)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return res
}

// TestGoldenHashes pins StateHash, ResultHash and (for CLAMR) StateBytes
// to recorded values, single-lane and at the default lane count.
func TestGoldenHashes(t *testing.T) {
	for _, gc := range goldenCases {
		for _, workers := range []int{1, 0} {
			res := runGolden(t, gc, workers)
			rh, err := res.ResultHash()
			if err != nil {
				t.Fatal(err)
			}
			if res.StateHash != gc.stateHash {
				t.Errorf("%s workers=%d: state hash %s, golden %s", gc.name, workers, res.StateHash, gc.stateHash)
			}
			if rh != gc.resultHash {
				t.Errorf("%s workers=%d: result hash %s, golden %s", gc.name, workers, rh, gc.resultHash)
			}
			if gc.stateBytes != 0 && res.StateBytes != gc.stateBytes {
				t.Errorf("%s workers=%d: state bytes %d, golden %d", gc.name, workers, res.StateBytes, gc.stateBytes)
			}
		}
	}
}
