package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// The correctness gate. A violation fails the run; it is never a metric.

// checkDigests requires every replica's state digest to be byte-identical.
func checkDigests(names []string, digests [][]byte) error {
	for i := 1; i < len(digests); i++ {
		if !bytes.Equal(digests[0], digests[i]) {
			return fmt.Errorf("state of %s diverges from %s (%d vs %d bytes)",
				names[i], names[0], len(digests[i]), len(digests[0]))
		}
	}
	return nil
}

// checkApplied requires each replica's applied-update count to lie between
// the acknowledged and the attempted writes; with no failed write both bounds
// coincide and the count must equal the acknowledged writes.
func checkApplied(names []string, applied []int, acked, attempted uint64) error {
	for i, n := range applied {
		if uint64(n) < acked || uint64(n) > attempted {
			return fmt.Errorf("%s applied %d updates, want between %d acked and %d attempted", names[i], n, acked, attempted)
		}
	}
	return nil
}

// checkRead requires a linearizable read of key to return a version no older
// than the last write to that key acknowledged before the read began.
func checkRead(key int, value []byte, ackedBefore uint64) error {
	v, err := parseVersion(value)
	if err != nil {
		return fmt.Errorf("read of key %d: %w", key, err)
	}
	if v < ackedBefore {
		return fmt.Errorf("stale linearizable read of key %d: version %d, but version %d was acknowledged before the read began", key, v, ackedBefore)
	}
	return nil
}

// checkFingerprints requires every bank replica to hold the same balances.
func checkFingerprints(fps []string) error {
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			return fmt.Errorf("bank replica s%d's balances diverge from s0's", i)
		}
	}
	return nil
}

// parseVersion reads the version from a value written as
// "<version>.<op id>.<pad>"; a key never written reads as "" (version 0).
func parseVersion(value []byte) (uint64, error) {
	if len(value) == 0 {
		return 0, nil
	}
	s, _, ok := strings.Cut(string(value), ".")
	if !ok {
		return 0, fmt.Errorf("malformed value %.40q", value)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed value %.40q", value)
	}
	return v, nil
}

// violations keeps the first gate violation seen during the load.
type violations struct {
	mu    sync.Mutex
	first error
	n     int
}

func (v *violations) add(err error) {
	if err == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.first == nil {
		v.first = err
	}
	v.n++
}

func (v *violations) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.first == nil {
		return nil
	}
	return fmt.Errorf("%d violation(s), first: %w", v.n, v.first)
}
