// Package chaostest is the deterministic chaos harness of the repository:
// a seeded driver over a sharded memnet cluster that kills, restarts and
// rejoins replicas and gateways while concurrent sharded clients issue
// writes and reads at all three consistency levels, continuously checking
// exactly-once execution, read-your-writes, monotonic commit indexes and —
// after quiescence — byte-identical replica state across every survivor
// and every rejoined replica.
//
// Determinism: the fault SCHEDULE (which action, which target, how long
// each outage lasts, the pauses in between) is drawn from a single seeded
// RNG and printed at startup, so a failing run's schedule is reproduced by
// re-running with the printed seed (CHAOS_SEED). The assertions themselves
// are timing-independent invariants — they must hold under every
// interleaving the scheduler produces for that schedule.
package chaostest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/replication"
)

// chaosSM is the counting ledger state machine: every applied update
// increments its op's counter, so lost or duplicated applications are
// directly observable, and reads return the count as text. Its snapshot is
// a canonical sorted encoding, so replicas with equal state produce equal
// bytes (the cross-replica digest check relies on this).
type chaosSM struct {
	mu     sync.Mutex
	counts map[string]int
}

func newChaosSM() *chaosSM {
	return &chaosSM{counts: make(map[string]int)}
}

func (c *chaosSM) Execute(op []byte) ([]byte, []byte) {
	return []byte("ok:" + string(op)), op
}

func (c *chaosSM) ApplyUpdate(update []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[string(update)]++
}

func (c *chaosSM) read(op []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strconv.Itoa(c.counts[string(op)]))
}

func (c *chaosSM) count(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[op]
}

// duplicated returns ops applied more than once — always a violation, as
// every chaos op is unique and acknowledged at most once.
func (c *chaosSM) duplicated() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dups []string
	for op, n := range c.counts {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("%s x%d", op, n))
		}
	}
	sort.Strings(dups)
	return dups
}

// snapshot is the canonical encoding: "op\x00count" lines, sorted by op.
func (c *chaosSM) snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	ops := make([]string, 0, len(c.counts))
	for op := range c.counts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var b strings.Builder
	for _, op := range ops {
		b.WriteString(op)
		b.WriteByte(0)
		b.WriteString(strconv.Itoa(c.counts[op]))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func (c *chaosSM) restore(data []byte) {
	counts := make(map[string]int)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		op, n, ok := strings.Cut(line, "\x00")
		if !ok {
			continue
		}
		v, err := strconv.Atoi(n)
		if err != nil {
			continue
		}
		counts[op] = v
	}
	c.mu.Lock()
	c.counts = counts
	c.mu.Unlock()
}

func (c *chaosSM) snapshotter() replication.Snapshotter {
	return replication.Snapshotter{Snapshot: c.snapshot, Restore: c.restore}
}
