package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/runner"
)

const (
	// jobLimit is the fleet job workloads' latency limit: a job whose
	// result body is not complete this long after its POST counts as
	// failed.
	jobLimit = time.Second
	// jobHotBytes is the coordinator's default hot tier.
	jobHotBytes = 64 << 20
	// jobClients is the number of closed-loop clients.
	jobClients = 2
	// checkSample is how many completed jobs are re-run directly.
	checkSample = 8
	// warmUpLimit bounds a fleet's warm-up.
	warmUpLimit = 10 * time.Second
)

// jobSize shapes the specs a fleet job workload submits, and how many
// jobs each client runs before timing starts.
type jobSize struct {
	clamrN, clamrSteps              int // CLAMR grid side and steps (one refinement level)
	selfElems, selfOrder, selfSteps int // SELF elements per side, order and base steps
	warmJobs                        int
}

var (
	// coldSize solves in about 1 ms: the service layers dominate the job,
	// and the health breaker's defect shows.
	coldSize = jobSize{clamrN: 16, clamrSteps: 5, selfElems: 2, selfOrder: 2, selfSteps: 2, warmJobs: 200}
	// writeSize solves in about 20 ms on one lane, long enough that
	// scheduling jitter stays well under the breaker's 2x-median slow
	// test, short enough that admission, fsyncs, leases and uploads are
	// still a visible share of the job.
	writeSize = jobSize{clamrN: 64, clamrSteps: 20, selfElems: 4, selfOrder: 3, selfSteps: 3, warmJobs: 20}
)

// jobGen generates distinct specs from the seed: the app and mode of each
// job are drawn at random, and a per-shape counter makes every spec
// distinct, so every submission is a cache miss. CLAMR jobs are the dam
// break with one refinement level; SELF jobs are the thermal bubble at
// selfSteps or one more, in native or promoted math.
type jobGen struct {
	mu    sync.Mutex
	size  jobSize
	rng   *rand.Rand
	count map[string]int
	off   int
}

var jobShapes = []struct{ app, mode string }{
	{"clamr", "min"}, {"clamr", "mixed"}, {"clamr", "full"},
	{"self", "min"}, {"self", "mixed"}, {"self", "full"},
}

func newJobGen(seed int64, size jobSize) *jobGen {
	rng := rand.New(rand.NewSource(seed))
	return &jobGen{size: size, rng: rng, count: map[string]int{}, off: rng.Intn(64)}
}

func (g *jobGen) next() runner.ExperimentSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	sh := jobShapes[g.rng.Intn(len(jobShapes))]
	k := sh.app + "/" + sh.mode
	i := g.count[k] + g.off
	g.count[k]++
	z := g.size
	if sh.app == "clamr" {
		// The dam break has no dry cells, so the dry floor changes the
		// spec's hash but not the work.
		return runner.ExperimentSpec{App: "clamr", Mode: sh.mode, Steps: z.clamrSteps, LineCutN: 16,
			NX: z.clamrN, NY: z.clamrN, MaxLevel: 1, AMRInterval: 5, DryTol: 1e-9 * (1 + float64(i)*1e-6)}
	}
	mm := "native"
	if i%2 == 1 {
		mm = "promoted"
	}
	return runner.ExperimentSpec{App: "self", Mode: sh.mode, Steps: z.selfSteps + (i/2)%2, LineCutN: 8 + i/4,
		Elements: z.selfElems, Order: z.selfOrder, MathMode: mm}
}

// jobOp is one submitted job as the client saw it. Its latency runs
// from the POST to the complete result body.
type jobOp struct {
	opStat
	spec     runner.ExperimentSpec
	specHash string
	submitS  float64 // POST round trip
	id       string
	state    string
	trace    *traceData
}

func newJobOp(spec runner.ExperimentSpec) (*jobOp, error) {
	h, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	return &jobOp{spec: spec, specHash: h}, nil
}

// resultBody is the part of a result payload the checks read.
type resultBody struct {
	SpecHash  string `json:"spec_hash"`
	StateHash string `json:"state_hash"`
}

// submitAndWait submits op's spec and waits for its result body, up to
// ctx, then checks that the result is for that spec.
func submitAndWait(ctx context.Context, f *fleet, op *jobOp) error {
	body, err := json.Marshal(op.spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	code, _, b, err := f.call(ctx, http.MethodPost, "/v1/jobs", body, nil)
	op.submitS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return fmt.Errorf("POST /v1/jobs: %d %s", code, b)
	}
	var view struct {
		ID       string `json:"id"`
		SpecHash string `json:"spec_hash"`
		Cached   bool   `json:"cached"`
	}
	if err := json.Unmarshal(b, &view); err != nil {
		return fmt.Errorf("decode job view: %w", err)
	}
	if view.Cached {
		// Every spec the benchmark submits for computing is new.
		return checkErrorf("job %s: spec %s was already cached", view.ID, op.specHash[:12])
	}
	op.id = view.ID
	code, _, b, err = f.call(ctx, http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET result: %d %s", code, b)
	}
	var res resultBody
	if err := json.Unmarshal(b, &res); err != nil {
		return checkErrorf("job %s: decode result: %v", view.ID, err)
	}
	if res.SpecHash != op.specHash || view.SpecHash != op.specHash {
		return checkErrorf("job %s: spec hash %s, want %s", view.ID, res.SpecHash, op.specHash)
	}
	op.state = res.StateHash
	return nil
}

// warmUp runs the generator's warmJobs jobs per client, closed loop, so
// caches, connection pools and the breaker's latency rings are past their
// start-up state before timing starts. A warm-up the stalled fleet cannot
// finish is cut off after warmUpLimit and timing starts anyway.
func warmUp(f *fleet, gen *jobGen) error {
	ctx, cancel := context.WithTimeout(context.Background(), warmUpLimit)
	defer cancel()
	errs := make([]error, jobClients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < gen.size.warmJobs && errs[c] == nil; j++ {
				var op *jobOp
				if op, errs[c] = newJobOp(gen.next()); errs[c] == nil {
					errs[c] = submitAndWait(ctx, f, op)
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		fmt.Printf("warm-up cut off after %v\n", warmUpLimit)
		return nil
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func runFleetWrite(cfg config) (*result, error) { return runFleetJobs(cfg, "write", writeSize) }
func runFleetCold(cfg config) (*result, error)  { return runFleetJobs(cfg, "cold", coldSize) }

// runFleetJobs runs two closed-loop clients that each submit a distinct
// spec of the given size and wait for its result body, with the stall
// witness polling the fleet throughout.
func runFleetJobs(cfg config, name string, size jobSize) (*result, error) {
	res := newResult()
	// Each fleet warms up on the seed's first specs; the kept fleet's
	// generator carries on past them, so timed jobs stay cache misses.
	f, gen, setup, err := setUpFleet(cfg, name, fleetOpts{hotBytes: jobHotBytes}, func(f *fleet) (*jobGen, error) {
		gen := newJobGen(cfg.seed, size)
		return gen, warmUp(f, gen)
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	res.e2e["setup_s"] = setup

	wctx, wcancel := context.WithCancel(context.Background())
	var wit witness
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() { defer wwg.Done(); wit.run(wctx, f) }()
	stopWitness := func() { wcancel(); wwg.Wait() }
	defer stopWitness()

	// A job still running when the run ends is cut off one latency limit
	// later and counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+jobLimit)
	defer cancel()
	var (
		mu   sync.Mutex
		ops  []*jobOp
		errs errorLog
	)
	run, err := runSlices(f, cfg.seconds, cfg.trace, jobClients, func(_, slice int, traced bool) {
		op, err := newJobOp(gen.next())
		if err != nil {
			errs.add(err)
			return
		}
		op.slice = slice
		t0 := time.Now()
		err = submitAndWait(ctx, f, op)
		op.latS = time.Since(t0).Seconds()
		op.ok = err == nil && op.latS <= jobLimit.Seconds()
		if err == nil && traced {
			op.trace, err = fetchTrace(ctx, f, op.id)
		}
		errs.add(err)
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
	})
	stopWitness()
	if err != nil {
		return nil, err
	}
	errs.report(res)

	// Output check: a seeded sample of completed jobs, re-run directly.
	var done []*jobOp
	for _, op := range ops {
		if op.state != "" {
			done = append(done, op)
		}
	}
	if len(done) == 0 {
		fmt.Println("no job completed; nothing to re-run")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(done), func(i, j int) { done[i], done[j] = done[j], done[i] })
	for _, op := range done[:min(checkSample, len(done))] {
		r, err := runner.Run(context.Background(), op.spec, runner.RunOpts{})
		if err != nil {
			res.problem("direct run of %s: %v", op.specHash[:12], err)
		} else if r.StateHash != op.state {
			res.problem("job %s: state hash %s, direct run %s", op.id, op.state, r.StateHash)
		}
	}

	plain := summarize(ops, run, false)
	plain.e2e(res, "jobs", "job_latency", "ms")
	qs, entries := wit.read()
	res.layer["dispatch.fleet_quarantined_s"] = qs
	res.layer["dispatch.quarantine_entries"] = float64(entries)
	fmt.Printf("stall witness: fleet quarantined %.2f s, %d quarantine entries\n", qs, entries)
	if !cfg.trace {
		return res, nil
	}

	tr := summarize(ops, run, true)
	res.attempted += tr.attempted
	res.failed += tr.failed
	res.layer["tracing_overhead_frac"] = frac(plain.rate-tr.rate, plain.rate)
	res.notes["tracing_overhead_frac"] = "jobs/s, untraced vs traced slices"
	var submit, adm, qwait, lease, solve, unattr []float64
	for _, op := range ops {
		if op.trace == nil {
			continue
		}
		submit = append(submit, op.submitS*1e3)
		sp := op.trace.breakdown()
		adm = append(adm, sp.admission*1e3)
		qwait = append(qwait, sp.queueWait*1e3)
		lease = append(lease, sp.lease*1e3)
		solve = append(solve, sp.solve*1e3)
		unattr = append(unattr, sp.unattributed*1e3)
	}
	for k, xs := range map[string][]float64{
		"api.submit_ms": submit, "queue.admission_ms": adm, "queue.wait_ms": qwait,
		"dispatch.lease_ms": lease, "worker.solve_ms": solve, "job.unattributed_ms": unattr,
	} {
		res.layer[k] = median(xs)
		res.notes[k] = fmt.Sprintf("median of %d traced jobs", len(xs))
	}

	d := run.deltas()
	res.layer["journal.fsyncs_per_job"] = frac(d.fsyncs, d.executed)
	res.layer["journal.fsync_ms"] = frac(d.fsyncSum, d.fsyncs) * 1e3
	res.layer["journal.fsync_busy_frac"] = frac(d.fsyncSum, d.wall)
	res.layer["cache.puts_per_job"] = frac(d.puts, d.executed)
	res.layer["coordinator.cpu_ms_per_job"] = frac(d.coordCPU, d.executed) * 1e3
	res.layer["worker.cpu_ms_per_job"] = frac(d.workerCPU, d.executed) * 1e3
	res.layer["coordinator.rss_kb_per_job"] = frac(d.coordRSS, d.executed)
	res.notes["coordinator.cpu_ms_per_job"] = fmt.Sprintf("%.0f jobs executed in traced slices", d.executed)
	return res, nil
}

// traceData mirrors GET /v1/jobs/{id}/trace.
type traceData struct {
	DurationNs int64 `json:"duration_ns"`
	Spans      []struct {
		Name       string `json:"name"`
		Parent     int    `json:"parent"`
		StartNs    int64  `json:"start_ns"`
		DurationNs int64  `json:"duration_ns"`
	} `json:"spans"`
}

func fetchTrace(ctx context.Context, f *fleet, id string) (*traceData, error) {
	var t traceData
	if err := f.getJSON(ctx, "/v1/jobs/"+id+"/trace", &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// spanBreakdown is one job's time split by the spans the coordinator
// records, in seconds.
type spanBreakdown struct {
	admission, queueWait, lease, solve, unattributed float64
}

// breakdown reads a job trace: admission runs from the job's start until
// queue_wait opens; unattributed is the job's wall time minus its direct
// child spans (the root is span 0, its children have parent 0).
func (t *traceData) breakdown() spanBreakdown {
	var b spanBreakdown
	var children float64
	first := map[string]bool{}
	for i, s := range t.Spans {
		if i == 0 {
			continue
		}
		d := float64(s.DurationNs) / 1e9
		if s.Parent == 0 {
			children += d
		}
		if first[s.Name] {
			continue
		}
		first[s.Name] = true
		switch s.Name {
		case "queue_wait":
			b.queueWait = d
			b.admission = float64(s.StartNs-t.Spans[0].StartNs) / 1e9
		case "lease_wait":
			b.lease = d
		case "solve":
			b.solve = d
		}
	}
	b.unattributed = float64(t.DurationNs)/1e9 - children
	return b
}
