package replication

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/storage"
	"repro/internal/transport"
)

func openFileEngine(t *testing.T, dir string) *storage.File {
	t.Helper()
	e, err := storage.Open(dir, storage.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// durableReplica builds a detached replica over a file engine in dir,
// replaying whatever the engine holds.
func durableReplica(t *testing.T, dir string, self proc.ID, compact int64) (*Passive, *snapKV, *storage.File, ReplayStats) {
	t.Helper()
	sm := newSnapKV()
	p := NewFollower(sm, self)
	p.SetSnapshotter(sm.snapshotter())
	eng := openFileEngine(t, dir)
	p.SetStorage(StorageConfig{Engine: eng, CompactBytes: compact})
	rs, err := p.ReplayStorage()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return p, sm, eng, rs
}

// TestStorageDurableRoundTrip: deliveries hit the WAL before their ack
// point, CloseStorage seals with a snapshot, and a fresh process rebuilds
// byte-identical state from disk alone.
func TestStorageDurableRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	a, _, eng, _ := durableReplica(t, dir, "a", -1)
	driveUpdates(a, "sess", 40)
	a.deliverMu.Lock()
	a.applyDelivered(pChange{Old: ""}) // ordered-class record rides along
	a.deliverMu.Unlock()

	if st := eng.Stats(); st.Appends != 41 || st.Syncs < 40 {
		t.Fatalf("engine accounting: %+v (want 41 appends, >=40 syncs)", st)
	}
	digest := a.StateDigest()
	if err := a.CloseStorage(); err != nil {
		t.Fatal(err)
	}

	b, smB, _, rs := durableReplica(t, dir, "a", -1)
	if rs.SnapshotIndex != 41 {
		t.Fatalf("replayed snapshot index %d, want 41 (CloseStorage seals with a snapshot)", rs.SnapshotIndex)
	}
	if got := b.CommitIndex(); got != 41 {
		t.Fatalf("commit index after replay %d, want 41", got)
	}
	if got := smB.get("k17"); got != "v17" {
		t.Fatalf("app state after replay k17=%q", got)
	}
	if !bytes.Equal(b.StateDigest(), digest) {
		t.Fatal("digest after disk replay differs from pre-shutdown digest")
	}
}

// TestStorageKillKeepsAckedWrites: a power loss (Kill: no flush) preserves
// everything a client was acked — each update delivery synced before its
// waiter could wake.
func TestStorageKillKeepsAckedWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	a, _, eng, _ := durableReplica(t, dir, "a", -1)
	driveUpdates(a, "sess", 25)
	eng.Kill()

	b, smB, _, rs := durableReplica(t, dir, "a", -1)
	if rs.Records != 25 || rs.SnapshotIndex != 0 {
		t.Fatalf("replay after kill: %+v (want 25 records, no snapshot)", rs)
	}
	if got := b.CommitIndex(); got != 25 {
		t.Fatalf("commit index %d, want 25", got)
	}
	if got := smB.get("k25"); got != "v25" {
		t.Fatalf("k25=%q after kill-replay", got)
	}
	// The dedup table replayed too: re-delivering an old update is a dup.
	b.deliverMu.Lock()
	b.applyDelivered(pUpdate{
		Epoch: 0, Client: "x", ReqID: 99,
		Update: []byte("set k3 EVIL"), Result: []byte("ok"),
		Session: "sess", Seq: 3,
	})
	b.deliverMu.Unlock()
	if got := smB.get("k3"); got != "v3" {
		t.Fatalf("exactly-once lost across restart: k3=%q", got)
	}
}

// TestStorageBatchOneFsyncPerWindow: a delivered batch is one WAL record
// and ONE engine sync, regardless of its entry count — the group-commit
// fsync amortisation.
func TestStorageBatchOneFsyncPerWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	a, sm, eng, _ := durableReplica(t, dir, "a", -1)
	const batches, per = 8, 16
	seq := uint64(0)
	for i := 0; i < batches; i++ {
		entries := make([]pBatchEntry, per)
		for j := range entries {
			seq++
			entries[j] = pBatchEntry{
				Update: []byte(fmt.Sprintf("set k%d v%d", seq, seq)),
				Result: []byte("ok"), Session: "sess", Seq: seq,
			}
		}
		a.deliverMu.Lock()
		a.applyDelivered(pUpdateBatch{Epoch: 0, Client: "x", ReqID: uint64(i + 1), Entries: entries})
		a.deliverMu.Unlock()
	}
	st := eng.Stats()
	if st.Appends != batches {
		t.Fatalf("appends %d, want %d (one record per batch)", st.Appends, batches)
	}
	if st.Syncs != batches {
		t.Fatalf("syncs %d, want %d (one fsync per commit window)", st.Syncs, batches)
	}
	if got := a.CommitIndex(); got != batches*per {
		t.Fatalf("commit index %d, want %d", got, batches*per)
	}
	if got := sm.get("k100"); got != "v100" {
		t.Fatalf("k100=%q", got)
	}

	// And the batch record replays to the same place.
	eng.Kill()
	b, _, _, rs := durableReplica(t, dir, "a", -1)
	if b.CommitIndex() != batches*per || rs.Ops != batches*per {
		t.Fatalf("batch replay: index %d, replayed ops %d", b.CommitIndex(), rs.Ops)
	}
}

// TestStorageCompaction: once the WAL outgrows CompactBytes, a background
// snapshot retires covered segments; restart replays snapshot + tail.
func TestStorageCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	sm := newSnapKV()
	a := NewFollower(sm, "a")
	a.SetSnapshotter(sm.snapshotter())
	eng, err := storage.Open(dir, storage.Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a.SetStorage(StorageConfig{Engine: eng, CompactBytes: 16 << 10})
	if _, err := a.ReplayStorage(); err != nil {
		t.Fatal(err)
	}
	driveUpdates(a, "sess", 600) // ~60 KiB of records: several compactions
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.StorageStats()
		if st.SnapshotIndex > 0 && st.Truncated > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := a.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	b, smB, _, rs := durableReplica(t, dir, "a", -1)
	if rs.SnapshotIndex == 0 {
		t.Fatal("restart did not replay from the compaction snapshot")
	}
	if got := b.CommitIndex(); got != 600 {
		t.Fatalf("commit index %d, want 600", got)
	}
	if got := smB.get("k600"); got != "v600" {
		t.Fatalf("k600=%q", got)
	}
}

// TestRecoveryAlignsRestartedGroup: three replicas come back from disk at
// DIFFERENT indices (each lost a different suffix) and the Recovery round
// pulls only the missing deltas — no snapshot transfer — until all agree.
// Incarnation 1 is the gcsnode -data-dir shape: every first pull crosses
// the reliable channel's incarnation handshake, and the request lost in
// that transition window must be re-sent at once, not after a timeout.
func TestRecoveryAlignsRestartedGroup(t *testing.T) {
	for _, inc := range []uint64{0, 1} {
		t.Run(fmt.Sprintf("incarnation%d", inc), func(t *testing.T) {
			testRecoveryAlignsRestartedGroup(t, inc)
		})
	}
}

func testRecoveryAlignsRestartedGroup(t *testing.T, inc uint64) {
	base := t.TempDir()
	ids := proc.IDs("r1", "r2", "r3")
	heights := map[proc.ID]int{"r1": 30, "r2": 25, "r3": 20}

	// Phase 1: each replica persists a different prefix of the same totally
	// ordered history, then dies without flushing.
	for _, id := range ids {
		p, _, eng, _ := durableReplica(t, filepath.Join(base, string(id)), id, -1)
		driveUpdates(p, "sess", heights[id])
		eng.Kill()
	}

	// Phase 2: rebuild from disk, wire real endpoints, run recovery.
	network := transport.NewNetwork(transport.WithDelay(0, time.Millisecond), transport.WithSeed(11))
	defer network.Shutdown()
	reps := make(map[proc.ID]*Passive)
	recs := make(map[proc.ID]*Recovery)
	for _, id := range ids {
		p, _, _, rs := durableReplica(t, filepath.Join(base, string(id)), id, -1)
		if int(rs.Records) != heights[id] {
			t.Fatalf("%s replayed %d records, want %d", id, rs.Records, heights[id])
		}
		ep := rchannel.New(network.Endpoint(id), rchannel.WithRTO(10*time.Millisecond), rchannel.WithIncarnation(inc))
		recs[id] = NewRecovery(ep, p, ids, SyncConfig{})
		ep.Start()
		reps[id] = p
	}
	const timeout = 5 * time.Second
	done := make(chan error, len(ids))
	start := time.Now()
	for _, id := range ids {
		go func(r *Recovery) { done <- r.Run(timeout) }(recs[id])
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatalf("recovery: %v", err)
		}
	}
	elapsed := time.Since(start)

	want := reps["r1"].StateDigest()
	for _, id := range ids {
		if got := reps[id].CommitIndex(); got != 30 {
			t.Fatalf("%s at index %d after recovery, want 30", id, got)
		}
		if !bytes.Equal(reps[id].StateDigest(), want) {
			t.Fatalf("%s digest differs after recovery", id)
		}
	}
	// Delta-only: the laggards adopted entries, nobody needed a snapshot.
	st2, st3 := recs["r2"].Stats(), recs["r3"].Stats()
	if st2.Entries == 0 || st3.Entries == 0 {
		t.Fatalf("laggards pulled no entries: r2=%+v r3=%+v", st2, st3)
	}
	if st2.Snapshots != 0 || st3.Snapshots != 0 {
		t.Fatalf("recovery fell back to snapshots: r2=%+v r3=%+v", st2, st3)
	}
	// No pull was lost: not even to the incarnation handshake, so the
	// whole alignment takes a fraction of one per-pull timeout.
	for _, id := range ids {
		if st := recs[id].Stats(); st.Failures != 0 {
			t.Fatalf("%s recorded %d failed pulls: %+v", id, st.Failures, st)
		}
	}
	if per := timeout / 10; elapsed > per/2 {
		t.Fatalf("alignment took %v, want well under the %v per-pull timeout", elapsed, per)
	}
	// And the adopted delta was persisted: kill r3 again, replay alone.
	if err := reps["r3"].CloseStorage(); err != nil {
		t.Fatal(err)
	}
	p3, _, _, _ := durableReplica(t, filepath.Join(base, "r3"), "r3", -1)
	if got := p3.CommitIndex(); got != 30 {
		t.Fatalf("r3 rereplay at %d, want 30 (recovered delta not persisted)", got)
	}
	if !bytes.Equal(p3.StateDigest(), want) {
		t.Fatal("r3 digest differs after second replay")
	}
}
