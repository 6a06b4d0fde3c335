package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets its system up; setup_s is the
// median.
const setupRepeats = 3

// setUpFleet starts a fleet and runs prepare on it, setupRepeats times,
// and keeps the last one. It returns that fleet, what prepare made of it
// and the median set-up time.
func setUpFleet[T any](cfg config, name string, o fleetOpts, prepare func(*fleet) (T, error)) (*fleet, T, float64, error) {
	var f *fleet
	var prepared T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		fl, err := startFleet(cfg.bin, filepath.Join(cfg.work, fmt.Sprintf("%s%d", name, i)), o)
		if err != nil {
			return nil, prepared, 0, err
		}
		p, err := prepare(fl)
		if err != nil {
			fl.stop()
			return nil, prepared, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if f != nil {
			f.stop()
		}
		f, prepared = fl, p
	}
	return f, prepared, median(times), nil
}

// opStat is one operation as a load client saw it.
type opStat struct {
	slice int     // time slice it started in
	latS  float64 // seconds from send to complete reply
	ok    bool    // succeeded within the workload's latency limit
}

func (o opStat) stat() opStat { return o }

// slicedRun is a closed-loop measurement split into time slices. A traced
// run alternates untraced and traced slices, so both see the same system
// state on average; around each traced slice the fleet's exports are
// snapshotted.
type slicedRun struct {
	traced []bool
	wall   []float64      // seconds each slice lasted
	snaps  [][2]fleetSnap // before and after each traced slice
}

// runSlices runs clients closed-loop for seconds: each client calls op
// again and again until its slice ends.
func runSlices(f *fleet, seconds float64, trace bool, clients int, op func(client, slice int, traced bool)) (*slicedRun, error) {
	r := &slicedRun{traced: []bool{false}}
	if trace {
		r.traced = []bool{false, true, false, true}
	}
	r.wall = make([]float64, len(r.traced))
	sliceLen := time.Duration(seconds / float64(len(r.traced)) * float64(time.Second))
	start := time.Now()
	for si, tr := range r.traced {
		sliceEnd := start.Add(sliceLen * time.Duration(si+1))
		var before fleetSnap
		if tr {
			s, err := f.snap()
			if err != nil {
				return nil, err
			}
			before = s
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(sliceEnd) {
					op(c, si, tr)
				}
			}()
		}
		wg.Wait()
		r.wall[si] = time.Since(t0).Seconds()
		if tr {
			after, err := f.snap()
			if err != nil {
				return nil, err
			}
			r.snaps = append(r.snaps, [2]fleetSnap{before, after})
		}
	}
	return r, nil
}

// opSummary condenses the ops of the traced or the untraced slices.
type opSummary struct {
	attempted, failed int
	lat               []float64
	rate              float64 // successful ops per second
}

func summarize[T interface{ stat() opStat }](ops []T, r *slicedRun, traced bool) opSummary {
	var s opSummary
	var secs float64
	for si, t := range r.traced {
		if t == traced {
			secs += r.wall[si]
		}
	}
	for _, op := range ops {
		st := op.stat()
		if r.traced[st.slice] != traced {
			continue
		}
		s.attempted++
		s.lat = append(s.lat, st.latS)
		if !st.ok {
			s.failed++
		}
	}
	s.rate = frac(float64(s.attempted-s.failed), secs)
	return s
}

// e2e fills the shared end-to-end metrics from the untraced slices, plus
// their workload-named aliases (unit is "ms" or "us").
func (s opSummary) e2e(res *result, opName, latName, latUnit string) {
	scale := 1e3
	if latUnit == "us" {
		scale = 1e6
	}
	t := tailOf(s.lat)
	res.attempted, res.failed = s.attempted, s.failed
	res.e2e["ops_per_s"] = s.rate
	res.e2e["op_p50_ms"] = median(s.lat) * 1e3
	res.e2e["op_tail_ms"] = t.Value * 1e3
	res.e2e["ok_frac"] = 1 - frac(float64(s.failed), float64(s.attempted))
	res.notes["ops_per_s"] = opName + "/s"
	res.notes["op_tail_ms"] = t.String()
	res.alias(opName+"_per_s", s.rate, "1/s", "")
	res.alias(latName+"_p50_"+latUnit, median(s.lat)*scale, latUnit, "")
	res.alias(latName+"_tail_"+latUnit, t.Value*scale, latUnit, t.String())
	res.alias("failed_frac", frac(float64(s.failed), float64(s.attempted)), "frac", "")
}

// deltas sums counter changes over the traced slices.
type deltas struct {
	wall, executed, fsyncs, fsyncSum, puts float64
	coordCPU, workerCPU, coordRSS          float64
	hot, remote, disk, submitted, hits     float64
}

func (r *slicedRun) deltas() deltas {
	var d deltas
	for _, s := range r.snaps {
		a, b := s[0], s[1]
		d.wall += b.at.Sub(a.at).Seconds()
		d.executed += float64(b.stats.Scheduler.Executed - a.stats.Scheduler.Executed)
		d.fsyncs += promSample(b.metrics, "precisiond_journal_fsync_seconds_count") - promSample(a.metrics, "precisiond_journal_fsync_seconds_count")
		d.fsyncSum += promSample(b.metrics, "precisiond_journal_fsync_seconds_sum") - promSample(a.metrics, "precisiond_journal_fsync_seconds_sum")
		d.puts += float64(b.stats.Cache.Puts - a.stats.Cache.Puts)
		d.coordCPU += b.coord.cpuS - a.coord.cpuS
		d.workerCPU += b.workers.cpuS - a.workers.cpuS
		d.coordRSS += b.coord.rssKB - a.coord.rssKB
		d.hot += float64(b.stats.Cache.HotHits - a.stats.Cache.HotHits)
		d.remote += float64(b.stats.Cache.RemoteHits - a.stats.Cache.RemoteHits)
		d.disk += float64(b.stats.Cache.DiskHits - a.stats.Cache.DiskHits)
		d.submitted += float64(b.stats.Scheduler.Submitted - a.stats.Scheduler.Submitted)
		d.hits += float64(b.stats.Scheduler.CacheHits - a.stats.Scheduler.CacheHits)
	}
	return d
}

// checkError is a failed output check, as opposed to an operation that
// failed or was refused.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkErrorf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// errorLog collects operation errors from concurrent clients.
type errorLog struct {
	mu   sync.Mutex
	errs []error
}

func (l *errorLog) add(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	l.errs = append(l.errs, err)
	l.mu.Unlock()
}

// report records failed output checks as problems and prints the first
// few other operation errors.
func (l *errorLog) report(res *result) {
	shown := 0
	for _, err := range l.errs {
		var ce *checkError
		switch {
		case errors.As(err, &ce):
			res.problem("%v", err)
		case shown < 5:
			shown++
			fmt.Printf("op error: %v\n", err)
		}
	}
}
