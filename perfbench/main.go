// Command perfbench is the repository's layered benchmark. It runs one
// workload for a fixed time, checks the program's outputs and prints every
// metric by name and unit, ending with one JSON line:
//
//	perfbench -workload ladder-clamr-mixed -seed 1 -seconds 10 -trace 0 -bin <dir> -work <dir>
//
// Workloads:
//
//	ladder-<app>-<mode>  runner.Run in-process on one rung of the precision
//	                     ladder (no service): clamr at min, mixed or full,
//	                     self at min or full
//	fleet-write          precisiond plus two precision-worker processes,
//	                     distinct jobs of about 20 ms, every one a cache miss
//	fleet-cold           the same fleet on jobs of about 1 ms, where the
//	                     health breaker's defect shows
//	warm-reads           the same fleet serving a seeded working set from
//	                     its cache tiers to clients fetching results again
//	all                  every workload in turn, each reported as above
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, measured from the same run by reading
// what the program already exports (Result phases and counters, job
// traces, /metrics, /v1/cache/stats, /v1/workers, /proc), plus
// tracing_overhead_frac: the change in the workload's headline metric
// between the run's untraced and traced slices. perfbench/run.py builds
// the binaries and invokes this program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
)

// metricDef names one metric, its unit, which direction is better and,
// for a per-layer metric, the workloads that cross the layer (none for
// every workload).
type metricDef struct {
	name, unit, better string
	workloads          []string
}

// crossedBy reports whether a run of workload crosses d's layer.
func (d metricDef) crossedBy(workload string) bool {
	return len(d.workloads) == 0 || slices.Contains(d.workloads, workload)
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; what an "op" is depends on the workload (one solve,
// one submitted job, one cached result fetched again).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", nil},
	{"ops_per_s", "1/s", "higher", nil},
	{"op_p50_ms", "ms", "lower", nil},
	{"op_tail_ms", "ms", "lower", nil},
	{"ok_frac", "frac", "higher", nil},
}

var (
	fleetJobs = []string{"fleet-write", "fleet-cold"}
	warmReads = []string{"warm-reads"}
)

// perLayer are the traced run's metrics. The kernel, par and runner layers
// come first, one set per ladder rung (see rungLayers).
var perLayer = append(rungLayers(), []metricDef{
	// api, queue and journal, dispatch, worker and cache writes.
	{"api.submit_ms", "ms", "lower", fleetJobs},
	{"queue.admission_ms", "ms", "lower", fleetJobs},
	{"queue.wait_ms", "ms", "lower", fleetJobs},
	{"dispatch.lease_ms", "ms", "lower", fleetJobs},
	{"worker.solve_ms", "ms", "lower", fleetJobs},
	{"job.unattributed_ms", "ms", "lower", fleetJobs},
	{"journal.fsyncs_per_job", "count", "lower", fleetJobs},
	{"journal.fsync_ms", "ms", "lower", fleetJobs},
	{"journal.fsync_busy_frac", "frac", "lower", fleetJobs},
	{"cache.puts_per_job", "count", "lower", fleetJobs},
	{"coordinator.cpu_ms_per_job", "ms", "lower", fleetJobs},
	{"worker.cpu_ms_per_job", "ms", "lower", fleetJobs},
	{"dispatch.fleet_quarantined_s", "s", "lower", fleetJobs},
	{"dispatch.quarantine_entries", "count", "lower", fleetJobs},
	{"coordinator.rss_kb_per_job", "kB", "lower", fleetJobs},
	// api reads and the cache's hot, replica and disk tiers.
	{"api.read_us.resubmit", "us", "lower", warmReads},
	{"api.read_us.revalidate_304", "us", "lower", warmReads},
	{"api.read_us.fetch_200", "us", "lower", warmReads},
	{"cache.hot_hit_frac", "frac", "higher", warmReads},
	{"cache.remote_hit_frac", "frac", "higher", warmReads},
	{"cache.disk_hit_frac", "frac", "lower", warmReads},
	{"queue.cache_hit_frac", "frac", "higher", warmReads},
	{"coordinator.cpu_us_per_read", "us", "lower", warmReads},
	{"coordinator.rss_kb_per_resubmit", "kB", "lower", warmReads},
	{"tracing_overhead_frac", "frac", "lower", nil},
}...)

// listed are the workloads BENCHMARK.json names. fleet-cold is left out
// while the breaker defect it measures keeps it from holding still (see
// workloads.json); it runs and reports like the others.
var listed = append(ladderWorkloads(), "fleet-write", "warm-reads")

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	bin     string // directory holding precisiond and precision-worker
	work    string // scratch directory for fleet state
	// tamper corrupts one read body in warm-reads, to show the output
	// check catches it.
	tamper bool
}

// result is one workload run: the counts, the metrics and the output
// check's findings.
type result struct {
	attempted int
	failed    int
	problems  []string // failed output checks; any one makes the run incorrect
	e2e       map[string]float64
	layer     map[string]float64
	notes     map[string]string // how a metric was taken (percentile, sample count)
	// aliases are end-to-end figures under their workload's own names
	// (jobs_per_s, read_latency_p50_us, solve_s.clamr.min, failed_frac),
	// printed beside the shared metrics.
	aliases []alias
}

type alias struct {
	name  string
	value float64
	unit  string
	note  string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]string{}}
}

// problem records a failed output check.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) alias(name string, value float64, unit, note string) {
	r.aliases = append(r.aliases, alias{name, value, unit, note})
}

// workloads maps a workload name to its implementation.
var workloads = map[string]func(config) (*result, error){
	"fleet-write": runFleetWrite,
	"fleet-cold":  runFleetCold,
	"warm-reads":  runWarmReads,
}

func init() {
	for _, r := range ladderRungs {
		workloads[r.workload()] = func(cfg config) (*result, error) { return runLadder(cfg, r) }
	}
}

func main() {
	var cfg config
	var trace int
	workload := flag.String("workload", "", "a workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the precisiond and precision-worker binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for fleet state")
	flag.BoolVar(&cfg.tamper, "tamper-reads", false, "corrupt one warm-reads body (self-test of the output check)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || cfg.work == "" || cfg.bin == "" {
		fatalf("need -seconds > 0, -work and -bin")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = append(slices.Clone(listed), "fleet-cold")
	}
	out := output{Correct: true, Metrics: map[string]metricOut{}}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fatalf("unknown workload %q", name)
		}
		fmt.Printf("== %s seed=%d seconds=%g trace=%d\n", name, cfg.seed, cfg.seconds, trace)
		res, err := run(cfg)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		report(name, res, cfg.trace)
		defs, vals := endToEnd, res.e2e
		if cfg.trace {
			// Every per-layer metric, as BENCHMARK.json lists them; a layer
			// this workload does not cross carries 0 here and is marked
			// as not crossed in the report above.
			defs, vals = perLayer, res.layer
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) || !d.crossedBy(name) {
				v = 0
			}
			out.Metrics[prefix+d.name] = metricOut{Value: v, Unit: d.unit}
		}
		out.Correct = out.Correct && res.correct()
		out.Attempted += res.attempted
		out.Failed += res.failed
	}
	out.Attempted = max(out.Attempted, 1)
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// report prints the run's end-to-end metrics, its workload-named figures
// and, in a traced run, its per-layer metrics, each by name and unit, then
// every failed output check. A layer the workload does not cross is
// printed as not measured.
func report(workload string, r *result, trace bool) {
	fmt.Printf("attempted %d failed %d\n", r.attempted, r.failed)
	for _, d := range endToEnd {
		fmt.Printf("e2e   %-32s %14.6g %-5s %s\n", d.name, r.e2e[d.name], d.unit, r.notes[d.name])
	}
	for _, a := range r.aliases {
		fmt.Printf("e2e   %-32s %14.6g %-5s %s\n", a.name, a.value, a.unit, a.note)
	}
	if trace {
		for _, d := range perLayer {
			if d.crossedBy(workload) {
				fmt.Printf("layer %-32s %14.6g %-5s %s\n", d.name, r.layer[d.name], d.unit, r.notes[d.name])
			} else {
				fmt.Printf("layer %-32s %14s %-5s not measured: %s does not cross this layer\n", d.name, "-", d.unit, workload)
			}
		}
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of a run.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
