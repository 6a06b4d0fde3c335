package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/runner"
)

// rung is one step of the precision ladder: an app at a mode. Each rung
// is a workload of its own, so a change to one mode moves that workload's
// end-to-end figures by its full size.
type rung struct{ app, mode string }

func (r rung) key() string      { return r.app + "." + r.mode }
func (r rung) workload() string { return "ladder-" + r.app + "-" + r.mode }

// ladderRungs are the rungs of the ladder.
var ladderRungs = []rung{
	{"clamr", "min"}, {"clamr", "mixed"}, {"clamr", "full"},
	{"self", "min"}, {"self", "full"},
}

func ladderWorkloads() []string {
	var names []string
	for _, r := range ladderRungs {
		names = append(names, r.workload())
	}
	return names
}

// rungLayers are the kernel, par and runner metrics, each crossed by the
// rung workloads it names.
func rungLayers() []metricDef {
	var defs, clamr, self []metricDef
	var clamrW, selfW []string
	for _, r := range ladderRungs {
		w := []string{r.workload()}
		defs = append(defs, metricDef{"solve_s." + r.key(), "s", "lower", w},
			metricDef{"par.speedup." + r.key(), "x", "higher", w})
		switch r.app {
		case "clamr":
			clamrW = append(clamrW, r.workload())
			clamr = append(clamr, metricDef{"clamr.finite_diff_s." + r.mode, "s", "lower", w},
				metricDef{"clamr.amr_s." + r.mode, "s", "lower", w},
				metricDef{"clamr.bytes_moved." + r.mode, "B", "lower", w})
			if r.mode == "mixed" {
				clamr = append(clamr, metricDef{"clamr.conversions.mixed", "count", "lower", w})
			}
		case "self":
			selfW = append(selfW, r.workload())
			self = append(self, metricDef{"self.rhs_s." + r.mode, "s", "lower", w},
				metricDef{"self.filter_s." + r.mode, "s", "lower", w})
		}
	}
	defs = append(defs, clamr...)
	defs = append(defs, self...)
	return append(defs,
		metricDef{"runner.overhead_s.clamr", "s", "lower", clamrW},
		metricDef{"runner.overhead_s.self", "s", "lower", selfW},
		metricDef{"solver.alloc_bytes", "B", "lower", ladderWorkloads()})
}

// ladderSpec is the dam break (CLAMR 192², two refinement levels, 60 steps,
// default face kernel) or the thermal bubble (SELF 6³ elements at order 6,
// 4 steps), each about half a second on a 2-core host. The seed jitters
// the line-cut resolution and the CLAMR dry floor; the dam break has no
// dry cells, so the work does not depend on the seed.
func ladderSpec(r rung, seed int64) runner.ExperimentSpec {
	j := int(seed % 17)
	if j < 0 {
		j = -j
	}
	if r.app == "clamr" {
		return runner.ExperimentSpec{App: "clamr", Mode: r.mode, Steps: 60, LineCutN: 64 + j,
			NX: 192, NY: 192, MaxLevel: 2, AMRInterval: 20, DryTol: 1e-9 * (1 + float64(j)*1e-3)}
	}
	return runner.ExperimentSpec{App: "self", Mode: r.mode, Steps: 4, LineCutN: 64 + j,
		Elements: 6, Order: 6}
}

// solve is one timed runner.Run call.
type solve struct {
	wallS float64 // the runner.Run call as the benchmark timed it
	res   *runner.Result
}

func (s solve) phase(name string) float64 {
	for _, p := range s.res.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

func timedRun(spec runner.ExperimentSpec, workers int) (solve, error) {
	t0 := time.Now()
	res, err := runner.Run(context.Background(), spec, runner.RunOpts{Workers: workers})
	if err != nil {
		return solve{}, fmt.Errorf("%s/%s: %w", spec.App, spec.Mode, err)
	}
	return solve{wallS: time.Since(t0).Seconds(), res: res}, nil
}

// runLadder calls runner.Run directly on one rung, one caller, solve
// after solve. A traced run alternates untraced solves with solves that
// also read the Go heap statistics around the call.
func runLadder(cfg config, r rung) (*result, error) {
	res := newResult()
	spec := ladderSpec(r, cfg.seed)
	if _, err := spec.Hash(); err != nil {
		return nil, err
	}

	// Set-up: the single-lane (Workers: 1) solve every default-lane solve
	// is checked against, setupRepeats times; it also warms pools and code
	// paths before timing.
	var setups []float64
	var base solve
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := timedRun(spec, 1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i > 0 && s.res.StateHash != base.res.StateHash {
			res.problem("%s: single-lane state hash %s differs from the first set-up's %s", r.key(), s.res.StateHash, base.res.StateHash)
		}
		base = s
	}
	res.e2e["setup_s"] = median(setups)
	res.notes["setup_s"] = fmt.Sprintf("median of %d single-lane reference solves", setupRepeats)

	var plain, traced []solve
	var allocs []float64 // bytes allocated per traced solve
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; time.Now().Before(deadline) || len(plain) == 0 || (cfg.trace && len(traced) == 0); n++ {
		tr := cfg.trace && n%2 == 1
		var before runtime.MemStats
		if tr {
			runtime.ReadMemStats(&before)
		}
		s, err := timedRun(spec, 0)
		if err != nil {
			return nil, err
		}
		res.attempted++
		// Output check: every solve ends in the single-lane reference's
		// state.
		if s.res.StateHash != base.res.StateHash {
			res.problem("%s: default-lane state hash %s, single-lane %s", r.key(), s.res.StateHash, base.res.StateHash)
			res.failed++
		}
		if !tr {
			plain = append(plain, s)
			continue
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
		traced = append(traced, s)
	}

	var wall, tracedWall []float64
	for _, s := range plain {
		wall = append(wall, s.wallS)
	}
	for _, s := range traced {
		tracedWall = append(tracedWall, s.wallS)
	}
	res.e2e["ops_per_s"] = frac(float64(len(wall)), sum(wall))
	res.e2e["op_p50_ms"] = median(wall) * 1e3
	t := tailOf(wall)
	res.e2e["op_tail_ms"] = t.Value * 1e3
	res.e2e["ok_frac"] = 1 - frac(float64(res.failed), float64(res.attempted))
	res.notes["ops_per_s"] = "solves/s"
	res.notes["op_p50_ms"] = fmt.Sprintf("one runner.Run, n=%d", len(wall))
	res.notes["op_tail_ms"] = t.String()
	res.alias("solve_s."+r.key(), median(wall), "s", fmt.Sprintf("median runner.Run of %d", len(wall)))
	res.alias("failed_frac", frac(float64(res.failed), float64(res.attempted)), "frac", "")
	if !cfg.trace {
		return res, nil
	}

	// Per-layer metrics come from the traced solves.
	var fd, amr, rhs, filter, overhead []float64
	for _, s := range traced {
		fd = append(fd, s.phase("finite_diff"))
		amr = append(amr, s.phase("amr"))
		rhs = append(rhs, s.phase("rhs"))
		filter = append(filter, s.phase("filter"))
		var phases float64
		for _, p := range s.res.Phases {
			phases += p.Seconds
		}
		overhead = append(overhead, s.wallS-phases)
	}
	l := res.layer
	l["solve_s."+r.key()] = median(tracedWall)
	res.notes["solve_s."+r.key()] = fmt.Sprintf("median of %d traced solves", len(tracedWall))
	l["par.speedup."+r.key()] = frac(median(setups), median(tracedWall))
	res.notes["par.speedup."+r.key()] = fmt.Sprintf("single-lane %.3f s / default-lane median", median(setups))
	l["runner.overhead_s."+r.app] = median(overhead)
	res.notes["runner.overhead_s."+r.app] = "runner.Run span minus its phases, " + r.mode + " mode"
	l["solver.alloc_bytes"] = median(allocs)
	res.notes["solver.alloc_bytes"] = fmt.Sprintf("median Go heap bytes allocated per runner.Run, %d traced solves", len(allocs))
	c := traced[0].res.Counters
	switch r.app {
	case "clamr":
		l["clamr.finite_diff_s."+r.mode] = median(fd)
		l["clamr.amr_s."+r.mode] = median(amr)
		l["clamr.bytes_moved."+r.mode] = float64(c.TotalBytes())
		res.notes["clamr.bytes_moved."+r.mode] = "computed: load_bytes + store_bytes counters"
		if r.mode == "mixed" {
			l["clamr.conversions.mixed"] = float64(c.Conversions)
			res.notes["clamr.conversions.mixed"] = "exact counter"
		}
	case "self":
		l["self.rhs_s."+r.mode] = median(rhs)
		l["self.filter_s."+r.mode] = median(filter)
	}
	l["tracing_overhead_frac"] = frac(median(tracedWall)-median(wall), median(wall))
	res.notes["tracing_overhead_frac"] = fmt.Sprintf("solve time, %d traced vs %d untraced solves", len(tracedWall), len(wall))
	return res, nil
}
