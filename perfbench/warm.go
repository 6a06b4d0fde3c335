package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

const (
	// warmHotBytes is the coordinator's -hot-bytes in warm-reads; the
	// working set is about twice this.
	warmHotBytes = 256 << 10
	// warmSetBytes is the working-set size setup fills the cache with.
	warmSetBytes = 2 * warmHotBytes
	// warmLimit is warm-reads' latency limit.
	warmLimit = 100 * time.Millisecond
	// warmClients is the number of closed-loop clients: client 0 replays
	// with a replay cache, client 1 without one (see readKind).
	warmClients = 2
	// zipfAlpha is the popularity skew of the reads: entry k of the
	// popularity order is drawn with weight 1/k^zipfAlpha. Breslau et al.,
	// "Web Caching and Zipf-like Distributions: Evidence and Implications"
	// (IEEE INFOCOM 1999), fit 0.64 to 0.83 on web proxy traces; 0.8 sits
	// in that range.
	zipfAlpha = 0.8
)

// entry is one result of the working set as setup computed it.
type entry struct {
	body     []byte
	digest   string // SHA-256 of body, as X-Payload-SHA256 stated it
	hash     string // spec hash
	state    string // state hash
	specJSON []byte
}

// warmSpec is the i-th spec of the working set, alternately a CLAMR 16²
// dam break (one refinement level, 5 steps) and a SELF 2³ thermal bubble
// (order 2). Every entry carries a line cut sized so that all payloads are
// about the same size; the dry floor (CLAMR) or the step count and math
// mode (SELF) keep the specs distinct without changing it. With equal
// sizes, how much of the working set the hot tier holds does not depend
// on which entries the seed makes popular. The seed draws the precision
// mode.
func warmSpec(rng *rand.Rand, i int) runner.ExperimentSpec {
	mode := []string{"min", "mixed", "full"}[rng.Intn(3)]
	if i%2 == 0 {
		return runner.ExperimentSpec{App: "clamr", Mode: mode, Steps: 5, LineCutN: 96,
			NX: 16, NY: 16, MaxLevel: 1, AMRInterval: 5, DryTol: 1e-9 * (1 + float64(i)*1e-6)}
	}
	mm := "native"
	if (i/2)%2 == 1 {
		mm = "promoted"
	}
	return runner.ExperimentSpec{App: "self", Mode: mode, Steps: 2 + i/4, LineCutN: 80,
		Elements: 2, Order: 2, MathMode: mm}
}

// fillWorkingSet computes results until their payloads add up to
// warmSetBytes, submitting through the same API the reads use, from
// warmClients submitters.
func fillWorkingSet(f *fleet, seed int64) ([]*entry, error) {
	rng := rand.New(rand.NewSource(seed))
	// Generous: a fleet the breaker has fully quarantined grants no lease
	// for 30 s.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Second)
	defer cancel()
	var set []*entry
	for total, i := 0, 0; total < warmSetBytes; {
		batch := make([]*entry, warmClients)
		errs := make([]error, warmClients)
		var wg sync.WaitGroup
		for c := range batch {
			spec := warmSpec(rng, i)
			i++
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch[c], errs[c] = computeEntry(ctx, f, spec)
			}()
		}
		wg.Wait()
		for c, e := range batch {
			if errs[c] != nil {
				return nil, fmt.Errorf("working set: %w", errs[c])
			}
			set = append(set, e)
			total += len(e.body)
		}
	}
	return set, nil
}

// computeEntry submits spec, waits for it and reads its cached payload by
// hash, checking the body against the X-Payload-SHA256 header.
func computeEntry(ctx context.Context, f *fleet, spec runner.ExperimentSpec) (*entry, error) {
	op, err := newJobOp(spec)
	if err != nil {
		return nil, err
	}
	if err := submitAndWait(ctx, f, op); err != nil {
		return nil, err
	}
	code, hdr, body, err := f.call(ctx, http.MethodGet, "/v1/results/"+op.specHash, nil, nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET result %s: %d %v", op.specHash[:12], code, err)
	}
	e := &entry{body: body, digest: hdr.Get("X-Payload-SHA256"), hash: op.specHash, state: op.state}
	if e.digest == "" {
		return nil, fmt.Errorf("GET result %s: no X-Payload-SHA256", op.specHash[:12])
	}
	if err := checkBody(e, body); err != nil {
		return nil, err
	}
	var r resultBody
	if err := json.Unmarshal(body, &r); err != nil || r.StateHash != e.state {
		return nil, checkErrorf("GET result %s: state hash %q, the job's result had %s (%v)", e.hash[:12], r.StateHash, e.state, err)
	}
	if e.specJSON, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	return e, nil
}

// readKind is how a client fetches a result again. Both kinds are the
// sequence cmd/precision-client issues for one spec: POST /v1/jobs (here
// always a cache hit), then GET /v1/jobs/{id}/result. A client run with
// -replay-cache that already holds the result sends If-None-Match and
// gets 304; a client without one gets the 200 body.
type readKind int

const (
	readReplay readKind = iota // holds the ETag: conditional GET, expect 304
	readFetch                  // no replay cache: plain GET, expect 200
	numReadKinds
)

// readTimes are the parts of one read, in seconds.
type readTimes struct{ resubmit, get float64 }

// readOp is one read as the client saw it.
type readOp struct {
	opStat
	kind  readKind
	parts readTimes
}

// doRead fetches e again as a client of the given kind would and checks
// what came back.
func doRead(ctx context.Context, f *fleet, e *entry, kind readKind, tamper bool) (readTimes, error) {
	var t readTimes
	t0 := time.Now()
	code, _, body, err := f.call(ctx, http.MethodPost, "/v1/jobs", e.specJSON, nil)
	t.resubmit = time.Since(t0).Seconds()
	if err != nil {
		return t, err
	}
	if code != http.StatusOK {
		return t, fmt.Errorf("resubmit %s: %d %s", e.hash[:12], code, body)
	}
	var v struct {
		ID       string `json:"id"`
		Status   string `json:"status"`
		Cached   bool   `json:"cached"`
		SpecHash string `json:"spec_hash"`
	}
	if json.Unmarshal(body, &v) != nil || v.Status != "done" || !v.Cached || v.SpecHash != e.hash {
		return t, checkErrorf("resubmit %s: %s, want a done cache hit", e.hash[:12], body)
	}

	var hdr map[string]string
	if kind == readReplay {
		hdr = map[string]string{"If-None-Match": `"` + e.hash + `"`}
	}
	t1 := time.Now()
	code, rh, body, err := f.call(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil, hdr)
	t.get = time.Since(t1).Seconds()
	if err != nil {
		return t, err
	}
	switch {
	case code == http.StatusNotModified && kind == readReplay:
		if rh.Get("ETag") != hdr["If-None-Match"] {
			return t, checkErrorf("revalidate %s: 304 with ETag %q", e.hash[:12], rh.Get("ETag"))
		}
		return t, nil
	case code == http.StatusNotModified:
		return t, checkErrorf("GET %s without If-None-Match: 304", e.hash[:12])
	case code != http.StatusOK:
		return t, fmt.Errorf("GET result %s: %d", e.hash[:12], code)
	}
	if tamper {
		body = append([]byte(nil), body...)
		body[len(body)/2] ^= 1
	}
	return t, checkBody(e, body)
}

// checkBody verifies a 200 result body against setup: its SHA-256 matches
// the X-Payload-SHA256 setup was sent for it. Setup decoded that body and
// checked its state hash, so a matching body carries the same one.
func checkBody(e *entry, body []byte) error {
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != e.digest {
		return checkErrorf("GET %s: body SHA-256 %s, X-Payload-SHA256 %s", e.hash[:12], got[:12], e.digest[:12])
	}
	return nil
}

// zipf draws ranks 0..n-1 with weight 1/(rank+1)^alpha.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, alpha float64, n int) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	var total float64
	for k := range z.cdf {
		total += math.Pow(float64(k+1), -alpha)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}

func runWarmReads(cfg config) (*result, error) {
	res := newResult()
	f, set, setup, err := setUpFleet(cfg, "warm", fleetOpts{hotBytes: warmHotBytes, readAddr: true}, func(f *fleet) ([]*entry, error) {
		return fillWorkingSet(f, cfg.seed)
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	res.e2e["setup_s"] = setup
	var setBytes int
	for _, e := range set {
		setBytes += len(e.body)
	}
	fmt.Printf("working set: %d results, %d bytes against -hot-bytes %d\n", len(set), setBytes, warmHotBytes)

	// Every client reads the working set in one seeded popularity order,
	// with its own seeded draws of entry. Client 0 replays with a replay
	// cache that holds every working-set result, as a returning user who
	// ran the specs before; client 1 has none.
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(set))
	zipfs := make([]*zipf, warmClients)
	for c := range zipfs {
		zipfs[c] = newZipf(rand.New(rand.NewSource(cfg.seed*31+int64(c))), zipfAlpha, len(set))
	}
	var tamperLeft atomic.Bool
	tamperLeft.Store(cfg.tamper)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+warmLimit)
	defer cancel()
	var (
		mu   sync.Mutex
		ops  []readOp
		errs errorLog
	)
	run, err := runSlices(f, cfg.seconds, cfg.trace, warmClients, func(c, slice int, _ bool) {
		e := set[perm[zipfs[c].next()]]
		op := readOp{kind: readKind(c % int(numReadKinds))}
		tamper := op.kind == readFetch && tamperLeft.CompareAndSwap(true, false)
		parts, err := doRead(ctx, f, e, op.kind, tamper)
		// An op's latency is its two requests; the checks in between and
		// after are the load generator's own work.
		op.opStat = opStat{slice: slice, latS: parts.resubmit + parts.get}
		op.parts = parts
		op.ok = err == nil && op.latS <= warmLimit.Seconds()
		errs.add(err)
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	errs.report(res)

	plain := summarize(ops, run, false)
	plain.e2e(res, "reads", "read_latency", "us")
	if !cfg.trace {
		return res, nil
	}

	tr := summarize(ops, run, true)
	res.attempted += tr.attempted
	res.failed += tr.failed
	res.layer["tracing_overhead_frac"] = frac(plain.rate-tr.rate, plain.rate)
	res.notes["tracing_overhead_frac"] = "reads/s, untraced vs traced slices"
	var resubmit, revalidate, fetch []float64
	for _, op := range ops {
		if !run.traced[op.slice] {
			continue
		}
		resubmit = append(resubmit, op.parts.resubmit*1e6)
		if op.kind == readReplay {
			revalidate = append(revalidate, op.parts.get*1e6)
		} else {
			fetch = append(fetch, op.parts.get*1e6)
		}
	}
	for name, xs := range map[string][]float64{
		"api.read_us.resubmit": resubmit, "api.read_us.revalidate_304": revalidate, "api.read_us.fetch_200": fetch,
	} {
		res.layer[name] = median(xs)
		res.notes[name] = fmt.Sprintf("median of %d traced requests", len(xs))
	}
	d := run.deltas()
	fetches := d.hot + d.remote + d.disk
	res.layer["cache.hot_hit_frac"] = frac(d.hot, fetches)
	res.layer["cache.remote_hit_frac"] = frac(d.remote, fetches)
	res.layer["cache.disk_hit_frac"] = frac(d.disk, fetches)
	res.notes["cache.hot_hit_frac"] = fmt.Sprintf("of %.0f cache fetches", fetches)
	res.layer["queue.cache_hit_frac"] = frac(d.hits, d.submitted)
	res.notes["queue.cache_hit_frac"] = fmt.Sprintf("of %.0f submissions", d.submitted)
	res.layer["coordinator.cpu_us_per_read"] = frac(d.coordCPU, float64(tr.attempted)) * 1e6
	res.layer["coordinator.rss_kb_per_resubmit"] = frac(d.coordRSS, float64(len(resubmit)))
	return res, nil
}
