package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process under test: a precisiond coordinator or a
// precision-worker, started from the binaries the benchmark built.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once stdout is drained
}

// startProc launches bin with args, sends its stderr and stdout to a log
// file in dir and waits until a stdout line starts with ready. It returns
// the rest of that line (the coordinator's listen address, say).
func startProc(dir, name, bin string, args []string, ready string) (*proc, string, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// A benchmark killed mid-run must not leave the fleet behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, "", fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, log: logf, done: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !found && strings.HasPrefix(line, ready) {
				found = true
				lines <- strings.TrimSpace(strings.TrimPrefix(line, ready))
			}
		}
		if !found {
			close(lines)
		}
	}()
	select {
	case rest, ok := <-lines:
		if ok {
			return p, rest, nil
		}
		p.stop()
		return nil, "", fmt.Errorf("%s exited before %q (see %s.log)", name, ready, name)
	case <-time.After(15 * time.Second):
		p.stop()
		return nil, "", fmt.Errorf("%s never printed %q (see %s.log)", name, ready, name)
	}
}

// stop kills the process and waits until it and its output pipe are gone.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	<-p.done
	p.cmd.Wait()
	p.log.Close()
}

// pid is the process ID, for /proc sampling.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// procSample is one /proc reading of a process: CPU seconds used so far
// (user plus system) and resident set size.
type procSample struct {
	cpuS  float64
	rssKB float64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// readProc samples /proc/<pid>/stat and /proc/<pid>/status.
func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.cpuS = (ut + st) / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			s.rssKB, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		}
	}
	return s, nil
}

// fleetOpts shapes the topology: one fleet-only coordinator with its
// journal on, plus two single-slot, single-lane workers.
type fleetOpts struct {
	hotBytes int64
	// readAddr puts every worker's replica and metrics listener on a
	// loopback port, so cache reads can come from worker replicas.
	readAddr bool
}

const fleetWorkers = 2

// fleet is the system under test for the fleet workloads.
type fleet struct {
	coord   *proc
	workers []*proc
	base    string
	client  *http.Client
}

// startFleet starts the coordinator and the workers in dir and waits until
// every worker has registered.
func startFleet(bin, dir string, o fleetOpts) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{client: newClient()}
	coord, addr, err := startProc(dir, "precisiond", filepath.Join(bin, "precisiond"), []string{
		"-addr", "127.0.0.1:0",
		"-workers", "0",
		"-cache", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal.wal"),
		"-hot-bytes", strconv.FormatInt(o.hotBytes, 10),
		"-log-level", "error",
	}, "listening on ")
	if err != nil {
		return nil, err
	}
	f.coord = coord
	f.base = "http://" + addr
	for i := 0; i < fleetWorkers; i++ {
		args := []string{
			"-coordinator", f.base,
			"-name", fmt.Sprintf("w%d", i),
			"-slots", "1",
			"-lanes", "1",
			"-log-level", "error",
		}
		if o.readAddr {
			args = append(args, "-read-addr", "127.0.0.1:0")
		}
		w, _, err := startProc(dir, fmt.Sprintf("worker%d", i), filepath.Join(bin, "precision-worker"), args, "registered as ")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// stop kills every process of the fleet and waits for each to exit.
func (f *fleet) stop() {
	for _, w := range f.workers {
		w.stop()
	}
	f.coord.stop()
	f.client.CloseIdleConnections()
}

// newClient is the load generator's HTTP client. Every request of a run,
// the stall witness's polls included, shares its connection pool.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true,
	}}
}

// call does one request and returns status, headers and body. The body is
// always read to the end so the connection is reused.
func (f *fleet) call(ctx context.Context, method, path string, body []byte, hdr map[string]string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// getJSON fetches path and decodes a 200 reply into v.
func (f *fleet) getJSON(ctx context.Context, path string, v any) error {
	code, _, b, err := f.call(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// promSample reads one un-labelled sample (a counter, or a histogram's
// _sum or _count) from a Prometheus text exposition; 0 when absent.
func promSample(expo []byte, name string) float64 {
	for _, line := range strings.Split(string(expo), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, _ := strconv.ParseFloat(strings.TrimSpace(line[len(name):]), 64)
			return v
		}
	}
	return 0
}

// fleetSnap is what the coordinator exports at one instant: its /metrics
// exposition, /v1/cache/stats and the /proc readings of every process.
type fleetSnap struct {
	at      time.Time
	metrics []byte
	stats   statsReply
	coord   procSample
	workers procSample // summed over workers
}

// statsReply mirrors the fields of GET /v1/cache/stats the benchmark reads.
type statsReply struct {
	Scheduler struct {
		Submitted uint64 `json:"submitted"`
		CacheHits uint64 `json:"cache_hits"`
		Executed  uint64 `json:"executed"`
	} `json:"scheduler"`
	Cache struct {
		HotHits    uint64 `json:"hot_hits"`
		RemoteHits uint64 `json:"remote_hits"`
		DiskHits   uint64 `json:"disk_hits"`
		Puts       uint64 `json:"puts"`
	} `json:"cache"`
}

func (f *fleet) snap() (fleetSnap, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s := fleetSnap{at: time.Now()}
	code, _, b, err := f.call(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil || code != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	s.metrics = b
	if err := f.getJSON(ctx, "/v1/cache/stats", &s.stats); err != nil {
		return s, err
	}
	if s.coord, err = readProc(f.coord.pid()); err != nil {
		return s, err
	}
	for _, w := range f.workers {
		ws, err := readProc(w.pid())
		if err != nil {
			return s, err
		}
		s.workers.cpuS += ws.cpuS
		s.workers.rssKB += ws.rssKB
	}
	return s, nil
}

// workerView mirrors the fields of GET /v1/workers the stall witness reads.
type workerView struct {
	Workers []struct {
		Name   string `json:"name"`
		Health string `json:"health"`
	} `json:"workers"`
}

// witness polls GET /v1/workers at a fixed low rate and accumulates the
// time during which every worker sat in quarantine, so no lease could be
// granted, plus the number of entries into quarantine it saw.
type witness struct {
	mu          sync.Mutex
	quarantined time.Duration
	entries     int
}

const witnessEvery = 250 * time.Millisecond

func (w *witness) run(ctx context.Context, f *fleet) {
	last := map[string]string{}
	t := time.NewTicker(witnessEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var v workerView
		if err := f.getJSON(ctx, "/v1/workers", &v); err != nil {
			continue // a missed poll only coarsens the witness
		}
		all := len(v.Workers) > 0
		entries := 0
		for _, wk := range v.Workers {
			if wk.Health == "quarantined" && last[wk.Name] != "quarantined" {
				entries++
			}
			if wk.Health != "quarantined" {
				all = false
			}
			last[wk.Name] = wk.Health
		}
		w.mu.Lock()
		w.entries += entries
		if all {
			w.quarantined += witnessEvery
		}
		w.mu.Unlock()
	}
}

func (w *witness) read() (quarantinedS float64, entries int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.quarantined.Seconds(), w.entries
}
