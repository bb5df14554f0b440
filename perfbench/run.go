package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/transport"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	warm     time.Duration // load before the window, not measured
	setups   int           // cluster builds timed for setup_s (median)
	trace    bool
	dir      string // where storage and span files go, inside the checkout
}

type metric struct {
	name, unit string
	value      float64
}

// result is what a run reports. gate is the first correctness violation.
type result struct {
	attempted, failed uint64
	gate              error
	e2e, layer        []metric
	info              []metric // reported, not gated (plain runs)
}

var workloads = map[string]func(runConfig) (*result, error){
	"write":       runWrite,
	"read-mostly": runReadMostly,
	"bank":        runBank,
	"failover":    runFailover,
}

// clock is the measured window, cut into subWindows equal parts. The heap
// is taken from the better quartile of its per-part values. In a traced run
// the parts alternate untraced and traced, which gives the tracing overhead
// within one run.
type clock struct {
	start, end time.Time
	sub        time.Duration
	trace      bool
}

const subWindows = 10

func newClock(at time.Time, cfg runConfig) clock {
	return clock{start: at, end: at.Add(cfg.window), sub: cfg.window / subWindows, trace: cfg.trace}
}

func (c clock) in(t time.Time) bool { return !t.Before(c.start) && t.Before(c.end) }

// part is the index of the part holding t, which must be in the window.
func (c clock) part(t time.Time) int { return min(int(t.Sub(c.start)/c.sub), subWindows-1) }

func (c clock) traced(t time.Time) bool { return c.trace && c.part(t)%2 == 1 }

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// window is what observe measured over the window.
type window struct {
	wall     time.Duration // measured between the two counter reads
	rt0, rt1 rtSnap
	c0, c1   counters
	partCPU  [subWindows]time.Duration
	partHeap [subWindows]float64 // peak live heap after GC, MB
}

// observe waits for the window, reads the counters at its start and end,
// the CPU time and heap peak of each part, and switches tracing per part.
func observe(c clock, tr *tracer, snap func() counters) window {
	var w window
	sleepUntil(c.start)
	w.c0 = snap()
	w.rt0 = readRuntime()
	t0 := time.Now()
	heap := watchHeap()
	cpu := w.rt0.cpu
	for i := 0; i < subWindows; i++ {
		tr.on.Store(c.trace && i%2 == 1)
		sleepUntil(c.start.Add(time.Duration(i+1) * c.sub))
		now := cpuTime()
		w.partCPU[i], cpu = now-cpu, now
		w.partHeap[i] = heap.mark()
	}
	tr.on.Store(false)
	w.wall = time.Since(t0)
	w.rt1 = readRuntime()
	w.c1 = snap()
	heap.done()
	return w
}

// counters are the layers' public Stats() read at the window's edges.
// Per-node counters are summed over the core nodes.
type counters struct {
	batches, batchOps     uint64
	leaseReads, fallbacks uint64
	barriers              uint64
	syncs, appends        uint64
	appendBytes           uint64
	retransmits           uint64
	fast, ordered, bounds uint64
	net                   transport.StatsSnapshot
	viewSeq               uint64
	retries, tooStale     uint64
	streamFrames, streamB uint64
}

func (a counters) sub(b counters) counters {
	return counters{
		batches: a.batches - b.batches, batchOps: a.batchOps - b.batchOps,
		leaseReads: a.leaseReads - b.leaseReads, fallbacks: a.fallbacks - b.fallbacks,
		barriers: a.barriers - b.barriers,
		syncs:    a.syncs - b.syncs, appends: a.appends - b.appends, appendBytes: a.appendBytes - b.appendBytes,
		retransmits: a.retransmits - b.retransmits,
		fast:        a.fast - b.fast, ordered: a.ordered - b.ordered, bounds: a.bounds - b.bounds,
		net: transport.StatsSnapshot{
			Sent: a.net.Sent - b.net.Sent, Delivered: a.net.Delivered - b.net.Delivered,
			Dropped: a.net.Dropped - b.net.Dropped, Bytes: a.net.Bytes - b.net.Bytes,
		},
		viewSeq: a.viewSeq - b.viewSeq,
		retries: a.retries - b.retries, tooStale: a.tooStale - b.tooStale,
		streamFrames: a.streamFrames - b.streamFrames, streamB: a.streamB - b.streamB,
	}
}

// Op kinds, each with its own latency sample.
type kind int

const (
	kPut kind = iota
	kGet
	kStale
	kDeposit
	kWithdraw
	nKinds
)

// recorder collects the ops due inside the window, by part.
type recorder struct {
	clk     clock
	mu      sync.Mutex
	lat     [subWindows][nKinds][]float64 // ms, successful ops
	ok      [subWindows]uint64
	att     uint64
	failed  uint64
	all     []opRec // every op, for the failover availability analysis
	keepAll bool
}

// opRec is one op's schedule and outcome.
type opRec struct {
	due, done time.Time
	ok        bool
}

func (r *recorder) record(k kind, due, done time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keepAll {
		r.all = append(r.all, opRec{due: due, done: done, ok: err == nil})
	}
	if !r.clk.in(due) {
		return
	}
	r.att++
	if err != nil {
		r.failed++
		return
	}
	p := r.clk.part(due)
	r.lat[p][k] = append(r.lat[p][k], float64(done.Sub(due))/1e6)
	r.ok[p]++
}

func (r *recorder) completed() uint64 {
	var n uint64
	for _, c := range r.ok {
		n += c
	}
	return n
}

// latencies merges the samples of the given kinds over the given parts
// (all parts when parts is nil).
func (r *recorder) latencies(parts []int, kinds ...kind) []float64 {
	if parts == nil {
		for p := range r.lat {
			parts = append(parts, p)
		}
	}
	var out []float64
	for _, p := range parts {
		for _, k := range kinds {
			out = append(out, r.lat[p][k]...)
		}
	}
	return out
}

// overhead is the share of ops/s lost in traced parts against untraced ones.
func (r *recorder) overhead() float64 {
	var plain, traced uint64
	for p, n := range r.ok {
		if p%2 == 1 {
			traced += n
		} else {
			plain += n
		}
	}
	if plain == 0 {
		return 0
	}
	return 1 - float64(traced)/float64(plain)
}

// timeSetups builds the cluster cfg.setups times and returns the median time
// to the first acknowledged op, with the last build kept for the run.
func timeSetups[T any](cfg runConfig, build func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var (
		cur   T
		times []float64
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		c, err := build(i)
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			teardown(c)
		}
		cur = c
	}
	return cur, median(times), nil
}

func (cfg runConfig) storageDir(i int) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, i))
}

// e2eMetrics are the end-to-end metrics every workload reports; their
// names and units match BENCHMARK.json.
func e2eMetrics(rec *recorder, setupS float64) []metric {
	success := 0.0
	if rec.att > 0 {
		success = float64(rec.att-rec.failed) / float64(rec.att)
	}
	return []metric{
		{"setup_s", "s", setupS},
		{"success_frac", "ratio", success},
	}
}

// clientMetrics are the rates, latencies, CPU cost and heap of the given
// parts (the heap from their better quartile).
// Another tenant's load on the shared machine moves them by more than any
// bound BENCHMARK.json may set, so they are reported, not gated: in the plain
// run over the whole window, in the traced run over its untraced parts.
func clientMetrics(rec *recorder, w window, writes []kind, parts []int) []metric {
	var ok uint64
	var cpu time.Duration
	var heap []float64
	for _, p := range parts {
		ok += rec.ok[p]
		cpu += w.partCPU[p]
		heap = append(heap, w.partHeap[p])
	}
	rate, cpuPerOp := 0.0, 0.0
	if len(parts) > 0 {
		rate = float64(ok) / (rec.clk.sub.Seconds() * float64(len(parts)))
	}
	if ok > 0 {
		cpuPerOp = float64(cpu.Microseconds()) / float64(ok)
	}
	wr := rec.latencies(parts, writes...)
	rd := rec.latencies(parts, kGet)
	st := rec.latencies(parts, kStale)
	failed := 0.0
	if rec.att > 0 {
		failed = float64(rec.failed) / float64(rec.att)
	}
	return []metric{
		{"client.ops_per_s", "1/s", rate},
		{"client.write_p50_ms", "ms", quantile(wr, 0.50)},
		{"client.write_p99_ms", "ms", quantile(wr, 0.99)},
		{"client.read_p50_ms", "ms", quantile(rd, 0.50)},
		{"client.read_p99_ms", "ms", quantile(rd, 0.99)},
		{"client.stale_read_p50_ms", "ms", quantile(st, 0.50)},
		{"client.stale_read_p99_ms", "ms", quantile(st, 0.99)},
		{"client.failed_frac", "ratio", failed},
		{"runtime.cpu_us_per_op", "us", cpuPerOp},
		{"runtime.mem_peak_mb", "MB", quantile(heap, 0.25)},
	}
}

// allParts lists every part of the window; untracedParts the even ones.
func allParts() []int {
	out := make([]int, subWindows)
	for i := range out {
		out[i] = i
	}
	return out
}

func untracedParts() []int {
	var out []int
	for i := 0; i < subWindows; i += 2 {
		out = append(out, i)
	}
	return out
}
