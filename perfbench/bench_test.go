package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/kvdemo"
)

// TestShortMode runs every workload for a fraction of a second, traced, and
// requires the gate to pass and every metric named in BENCHMARK.json.
func TestShortMode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		slices.Sort(out)
		return out
	}
	got := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		slices.Sort(out)
		return out
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			fn, ok := workloads[wl.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
			}
			res, err := fn(runConfig{
				workload: wl.Name, seed: 7, window: 400 * time.Millisecond,
				warm: 100 * time.Millisecond, setups: 1, trace: true, dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.gate != nil {
				t.Fatalf("gate: %v", res.gate)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
			}
			if g, w := got(res.e2e), want(spec.EndToEnd); !slices.Equal(g, w) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", g, w)
			}
			if g, w := got(res.layer), want(spec.PerLayer); !slices.Equal(g, w) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", g, w)
			}
		})
	}
}

func TestGateRejectsDivergedDigest(t *testing.T) {
	a, b := kvdemo.New(), kvdemo.New()
	for _, s := range []*kvdemo.Store{a, b} {
		s.ApplyUpdate([]byte("put k1 1.1.x"))
	}
	names := []string{"s0", "s1"}
	if err := checkDigests(names, [][]byte{a.Snapshot(), b.Snapshot()}); err != nil {
		t.Fatalf("equal stores rejected: %v", err)
	}
	b.ApplyUpdate([]byte("put k2 1.2.x"))
	if err := checkDigests(names, [][]byte{a.Snapshot(), b.Snapshot()}); err == nil {
		t.Fatal("diverged digest accepted")
	}
	if err := checkFingerprints([]string{"a", "a", "b"}); err == nil {
		t.Fatal("diverged bank fingerprint accepted")
	}
}

func TestGateRejectsStaleRead(t *testing.T) {
	if err := checkRead(3, []byte("4.17.xx"), 4); err != nil {
		t.Fatalf("fresh read rejected: %v", err)
	}
	if err := checkRead(3, []byte("3.16.xx"), 4); err == nil {
		t.Fatal("stale linearizable read accepted")
	}
	if err := checkRead(3, nil, 1); err == nil {
		t.Fatal("read of an unwritten key accepted after an acknowledged put")
	}
	if err := checkRead(3, []byte("garbage"), 0); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestGateAppliedBounds(t *testing.T) {
	names := []string{"s0", "s1"}
	if err := checkApplied(names, []int{10, 10}, 10, 10); err != nil {
		t.Fatal(err)
	}
	if err := checkApplied(names, []int{10, 11}, 10, 10); err == nil {
		t.Fatal("an update applied twice was accepted")
	}
	if err := checkApplied(names, []int{9, 12}, 10, 12); err == nil {
		t.Fatal("a lost acknowledged update was accepted")
	}
}

// TestSelfTime pins the self-time arithmetic on overlapping children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: [10,60] counts once
		{ID: 4, Parent: 1, Start: 80, End: 120}, // clipped to the parent: [80,100]
		{ID: 5, Parent: 2, Start: 15, End: 20},  // grandchild: counts against 2 only
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 30, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestLinkByOpID(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 9, Name: spClientOp, Start: 0, End: 100},
		{ID: 2, Op: 9, Name: spRequest, Start: 10, End: 90},
		{ID: 3, Op: 9, Name: spExecute, Start: 20, End: 30},
		{ID: 4, Op: 8, Name: spExecute, Start: 20, End: 30},
	}
	link(spans)
	if spans[1].Parent != 1 || spans[2].Parent != 2 || spans[3].Parent != 0 {
		t.Fatalf("parents %d %d %d, want 1 2 0", spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
}

func TestPutOpCarriesIDAndVersion(t *testing.T) {
	s := newKV(10, 1, 64)
	op := s.putOp(7, 3, 42)
	if got := opID(op); got != 42 {
		t.Fatalf("op ID %d, want 42", got)
	}
	f := strings.Fields(string(op))
	if len(f) != 3 || len(f[2]) != 64 {
		t.Fatalf("op %q: want 3 fields and a 64-byte value", op)
	}
	if v, err := parseVersion([]byte(f[2])); err != nil || v != 3 {
		t.Fatalf("version %d, %v; want 3", v, err)
	}
}
