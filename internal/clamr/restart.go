package clamr

import (
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/precision"
)

// Load restores a Runner from a checkpoint written by WriteCheckpoint. The
// mesh is rebuilt from the stored (i, j, level) list and validated; state
// arrays load at the checkpoint's precision and convert to the requested
// mode's storage type. Loading a checkpoint into the mode that wrote it
// resumes bit-exactly (the timestep is recomputed from restored state).
func Load(mode precision.Mode, cfg Config, r io.Reader) (Runner, error) {
	ck, err := checkpoint.Read(r)
	if err != nil {
		return nil, fmt.Errorf("clamr: restart: %w", err)
	}
	if ck.Header.App != "clamr" {
		return nil, fmt.Errorf("clamr: restart: checkpoint is for app %q", ck.Header.App)
	}
	switch mode {
	case precision.Min:
		return loadSolver[float32, float32](cfg, ck)
	case precision.Mixed:
		return loadSolver[float32, float64](cfg, ck)
	case precision.Full:
		return loadSolver[float64, float64](cfg, ck)
	default:
		return nil, fmt.Errorf("clamr: restart: unsupported mode %v", mode)
	}
}

// loadSolver rebuilds a typed solver from checkpoint contents.
func loadSolver[S, C precision.Real](cfg Config, ck *checkpoint.Checkpoint) (*Solver[S, C], error) {
	cfg.setDefaults()
	is, err := ck.Int32Array("cell_i")
	if err != nil {
		return nil, fmt.Errorf("clamr: restart: %w", err)
	}
	js, err := ck.Int32Array("cell_j")
	if err != nil {
		return nil, fmt.Errorf("clamr: restart: %w", err)
	}
	ls, err := ck.Int32Array("cell_level")
	if err != nil {
		return nil, fmt.Errorf("clamr: restart: %w", err)
	}
	if len(is) != len(js) || len(is) != len(ls) {
		return nil, fmt.Errorf("clamr: restart: mesh arrays disagree (%d/%d/%d)", len(is), len(js), len(ls))
	}
	cells := make([]mesh.Cell, len(is))
	for k := range is {
		if ls[k] < 0 || int(ls[k]) > cfg.MaxLevel {
			return nil, fmt.Errorf("clamr: restart: cell %d level %d outside config MaxLevel %d", k, ls[k], cfg.MaxLevel)
		}
		cells[k] = mesh.Cell{I: is[k], J: js[k], Level: int8(ls[k])}
	}
	m, err := mesh.FromCells(cfg.NX, cfg.NY, cfg.MaxLevel, cfg.Bounds, cells, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("clamr: restart: %w", err)
	}

	s := &Solver[S, C]{
		cfg:   cfg,
		mesh:  m,
		timer: metrics.NewTimer(),
		alloc: metrics.NewAllocTracker(),
	}
	s.initRuntime()
	load := func(name string) ([]S, error) {
		xs, err := ck.Float64Array(name)
		if err != nil {
			return nil, fmt.Errorf("clamr: restart: %w", err)
		}
		if len(xs) != len(cells) {
			return nil, fmt.Errorf("clamr: restart: array %q has %d entries for %d cells", name, len(xs), len(cells))
		}
		out := make([]S, len(xs))
		for i, v := range xs {
			out[i] = S(v)
		}
		return out, nil
	}
	if s.h, err = load("h"); err != nil {
		return nil, err
	}
	if s.hu, err = load("hu"); err != nil {
		return nil, err
	}
	if s.hv, err = load("hv"); err != nil {
		return nil, err
	}
	s.rebuildWorkspace()
	s.time = ck.Header.Time
	s.step = ck.Header.Step
	s.mass0 = s.Mass()
	return s, nil
}
