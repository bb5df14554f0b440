package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/msg"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy); 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is a point-in-time reading of the Go runtime's counters.
type rtSnap struct {
	cpu        time.Duration
	gcCPU      float64
	totalCPU   float64
	allocs     uint64
	allocBytes uint64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		cpu:        cpuTime(),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocs:     s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

// schedP99 is the 99th percentile of the scheduling latencies observed
// between two readings, in µs (bucket upper bound).
func schedP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, n := range diff {
		acc += n
		if acc >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// heapPeak samples the live Go heap (as marked by the last GC, so garbage
// awaiting collection does not count) and keeps the maximum since the last
// mark.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mark returns the peak since the previous mark in MB and starts anew.
func (h *heapPeak) mark() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// done stops sampling.
func (h *heapPeak) done() {
	close(h.stop)
	h.wg.Wait()
}

// codecCost replays msg.Decode and msg.Encode on sampled frames in
// isolation. Run it after the cluster is stopped, so no other goroutine
// allocates while the allocation counters are read.
type codecCost struct {
	decodeNs, decodeAllocs, encodeNs, encodeAllocs, bytes float64
}

func replayCodec(frames [][]byte) codecCost {
	var kept [][]byte
	var values []any
	var size int
	for _, f := range frames {
		v, err := msg.Decode(f)
		if err != nil {
			continue // not a msg frame
		}
		kept = append(kept, f)
		values = append(values, v)
		size += len(f)
	}
	if len(values) == 0 {
		return codecCost{}
	}
	const rounds = 3
	n := float64(rounds * len(kept))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range kept {
			_, _ = msg.Decode(f)
		}
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&ms)
	m1 := ms.Mallocs
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, v := range values {
			_, _ = msg.Encode(v)
		}
	}
	enc := time.Since(t1)
	runtime.ReadMemStats(&ms)
	m2 := ms.Mallocs
	return codecCost{
		decodeNs:     float64(dec.Nanoseconds()) / n,
		decodeAllocs: float64(m1-m0) / n,
		encodeNs:     float64(enc.Nanoseconds()) / n,
		encodeAllocs: float64(m2-m1) / n,
		bytes:        float64(size) / float64(len(kept)),
	}
}

// envStamp describes where a result was measured.
func envStamp(seed int64, seconds int) [][2]string {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return [][2]string{
		{"commit", commit()},
		{"source_sha256", sourceDigest()},
		{"go", runtime.Version()},
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"cpu", cpuModel},
		{"seed", strconv.FormatInt(seed, 10)},
		{"run_seconds", strconv.Itoa(seconds)},
		{"network", "memnet, 50-200us one-way"},
	}
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod files, so a
// result from a checkout without git history still names what it measured.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
