package replication

// Durable delivery: every counted command is appended to a storage.Engine
// before its originator acknowledges the client, with fsync batching riding
// the group-commit window.
//
// The wiring hangs off the two structures PR 5 already maintains for state
// transfer, because durability needs exactly the same artifacts:
//
//   - logAppendLocked — the single point every counted delivery passes
//     through under p.mu — STAGES the delivered command for the engine
//     (same LogRec the sync protocol ships, encoded with the same codec).
//   - persistDelivered — called at each delivery's end under deliverMu —
//     drains the staged records into Engine.Append and, at the update
//     paths only, calls Engine.Sync BEFORE the waiter that acknowledges
//     the client is woken. A batch is one record and one fsync, so the
//     fsync rate is one per commit window, not per op.
//
// Ordered-class records (primary changes, barriers, leases) append without
// an immediate sync: any valid WAL prefix is a consistent prefix of the
// total order, so losing an unsynced ordered suffix is indistinguishable
// from crashing moments earlier — and the next update's fsync makes them
// durable retroactively. Acked writes are always behind an fsync.
//
// Restart is replay-then-sync: ReplayStorage rebuilds the replica from its
// own snapshot + WAL tail through the SAME delivery handlers that produced
// the state (epoch tags, dedup decisions and lease expiry are recomputed
// from replicated state evolving through the replayed sequence — the
// ApplySyncEntries argument, applied to disk), after which a Recovery
// round pulls only the delta from peers over the sync wire protocol.
//
// Engine errors on the write path panic: a replica that cannot persist
// must crash rather than ack (the repo's fail-loudly policy — same as an
// undecodable abcast batch); the group tolerates the crash.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/storage"
)

// StorageConfig attaches an engine to a replica.
type StorageConfig struct {
	// Engine receives every counted delivered command.
	Engine storage.Engine
	// CompactBytes triggers a background snapshot + WAL truncation once the
	// live WAL exceeds this size (default 8 MiB; negative disables).
	CompactBytes int64
}

// ReplayStats reports what ReplayStorage reconstructed from local disk.
type ReplayStats struct {
	SnapshotIndex uint64 // commit index of the replayed snapshot (0 = none)
	SnapshotBytes int64
	Records       uint64 // WAL records applied
	Ops           uint64 // commit-index advance across them
	Bytes         uint64 // encoded WAL bytes applied
}

// SetStorage wires an engine under the replica. Call before the node (or
// the follower's syncer) starts delivering; pair with ReplayStorage when
// the engine may hold prior state.
func (p *Passive) SetStorage(cfg StorageConfig) {
	if cfg.Engine == nil {
		return
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 8 << 20
	}
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store != nil {
		panic("replication: SetStorage called twice")
	}
	p.store = cfg.Engine
	p.storeCompactBytes = cfg.CompactBytes
}

// persistDelivered drains the records staged by logAppendLocked into the
// engine and, when syncNow is set, makes them durable. Callers hold
// deliverMu (every delivery path does); syncNow is true only at the update
// paths, BEFORE the acking waiter is woken — that ordering is the whole
// durability contract. During bulk replay (ApplySyncEntries) the per-entry
// sync is suppressed and one sync closes the batch.
//
//gcsvet:blocking (it fsyncs: callers holding other guarded locks beware)
func (p *Passive) persistDelivered(syncNow bool) {
	if p.store == nil || p.storeReplay {
		return
	}
	p.mu.Lock()
	staged := p.storeStaged
	p.storeStaged = nil
	p.mu.Unlock()
	for _, rec := range staged {
		data, err := msg.Encode(rec)
		if err != nil {
			panic(fmt.Sprintf("replication: encode wal record @%d: %v", rec.End, err))
		}
		if err := p.store.Append(storage.Record{Index: rec.End, Data: data}); err != nil {
			panic(fmt.Sprintf("replication: wal append @%d: %v", rec.End, err))
		}
		p.storeDirty = true
	}
	if !syncNow || !p.storeDirty || p.storeBulk {
		return
	}
	m := p.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	if err := p.store.Sync(); err != nil {
		panic(fmt.Sprintf("replication: wal fsync: %v", err))
	}
	p.storeDirty = false
	if m != nil && m.fsyncLatency != nil {
		m.fsyncLatency.Observe(time.Since(start))
	}
	p.maybeCompactLocked()
}

// maybeCompactLocked kicks one background snapshot + truncation when the
// WAL outgrew the threshold; deliverMu is held by the caller. The capture
// itself re-takes deliverMu on the compaction goroutine — a snapshot is
// only meaningful at a delivery boundary — while the engine's own mutex
// covers SaveSnapshot racing concurrent appends.
func (p *Passive) maybeCompactLocked() {
	if p.storeCompactBytes <= 0 {
		return
	}
	if st := p.store.Stats(); st.WALBytes < p.storeCompactBytes {
		return
	}
	if !p.storeCompacting.CompareAndSwap(false, true) {
		return
	}
	store := p.store
	go func() {
		defer p.storeCompacting.Store(false)
		p.deliverMu.Lock()
		idx, data := p.captureSnapshotLocked()
		p.deliverMu.Unlock()
		if err := store.SaveSnapshot(idx, data); err != nil {
			if errors.Is(err, storage.ErrClosed) {
				return // lost the race with shutdown/kill; nothing to persist
			}
			panic(fmt.Sprintf("replication: snapshot save: %v", err))
		}
		if err := store.TruncateBefore(idx); err != nil && !errors.Is(err, storage.ErrClosed) {
			panic(fmt.Sprintf("replication: wal truncate: %v", err))
		}
	}()
}

// recSpan is the commit-index advance a replayed command produces.
func recSpan(body any) uint64 {
	if b, ok := body.(pUpdateBatch); ok {
		return uint64(len(b.Entries))
	}
	return 1
}

// ReplayStorage rebuilds the replica from its engine: newest snapshot
// first, then the WAL tail through the normal delivery handlers. Call
// after SetStorage and before any live delivery. The replica ends at
// exactly the highest locally durable index; a Recovery round (or the
// follower's syncer) then pulls only the delta from peers.
func (p *Passive) ReplayStorage() (ReplayStats, error) {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	var rs ReplayStats
	if p.store == nil {
		return rs, nil
	}
	p.storeReplay = true
	defer func() { p.storeReplay = false }()

	idx, data, ok, err := p.store.LoadSnapshot()
	if err != nil {
		return rs, err
	}
	if ok {
		if _, _, err := p.installSnapshotLocked(data); err != nil {
			return rs, fmt.Errorf("replication: replay snapshot: %w", err)
		}
		rs.SnapshotIndex, rs.SnapshotBytes = idx, int64(len(data))
	}

	err = p.store.Replay(p.CommitIndex(), func(rec storage.Record) error {
		v, err := msg.Decode(rec.Data)
		if err != nil {
			return fmt.Errorf("replication: replay decode @%d: %w", rec.Index, err)
		}
		lr, ok := v.(LogRec)
		if !ok {
			return fmt.Errorf("replication: replay @%d: unexpected %T", rec.Index, v)
		}
		cur := p.CommitIndex()
		if lr.End <= cur {
			return nil // covered by the snapshot
		}
		if cur+recSpan(lr.Body) != lr.End {
			return fmt.Errorf("replication: replay gap: at index %d, next record ends at %d", cur, lr.End)
		}
		p.applyDelivered(lr.Body)
		if got := p.CommitIndex(); got != lr.End {
			return fmt.Errorf("replication: replay desync: record ends at %d, commit index %d", lr.End, got)
		}
		rs.Records++
		rs.Ops += recSpan(lr.Body)
		rs.Bytes += uint64(len(rec.Data))
		return nil
	})
	if err != nil {
		return rs, err
	}
	p.mu.Lock()
	p.storeReplayed = rs
	p.mu.Unlock()
	return rs, nil
}

// CloseStorage ends the replica's durable life cleanly: final drain +
// fsync, a fresh snapshot, WAL truncation behind it, engine close. Call
// after the node stopped delivering (graceful shutdown).
func (p *Passive) CloseStorage() error {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	if p.store == nil {
		return nil
	}
	//gcsvet:ignore lockhold -- graceful shutdown: delivery has stopped, holding deliverMu across the final fsync+snapshot is the point
	p.persistDelivered(true)
	idx, data := p.captureSnapshotLocked()
	store := p.store
	//gcsvet:ignore lockhold -- graceful shutdown: same final-drain path, nothing contends deliverMu anymore
	if err := store.SaveSnapshot(idx, data); err != nil && !errors.Is(err, storage.ErrClosed) {
		return err
	}
	if err := store.TruncateBefore(idx); err != nil && !errors.Is(err, storage.ErrClosed) {
		return err
	}
	err := store.Close()
	p.mu.Lock()
	p.store = nil
	p.mu.Unlock()
	return err
}

// StorageStats combines the engine's accounting with the replica's replay
// counters (zero value when no engine is attached).
type StorageStats struct {
	storage.Stats
	Replayed ReplayStats
}

// StorageStats returns the durable layer's accounting.
func (p *Passive) StorageStats() StorageStats {
	p.mu.Lock()
	store := p.store
	replayed := p.storeReplayed
	p.mu.Unlock()
	var st StorageStats
	if store != nil {
		st.Stats = store.Stats()
	}
	st.Replayed = replayed
	return st
}

// --- Whole-cluster restart alignment -----------------------------------
//
// After a correlated crash every replica replays its OWN disk, so replicas
// come back at different commit indices (each lost its unsynced suffix
// independently) while the broadcast substrate restarts from scratch — no
// retransmission covers the difference. Recovery closes the gap over the
// sync wire protocol BEFORE the group takes traffic: each replica pulls
// deltas from its peers until no peer is ahead. Because the cluster is
// quiescent during recovery (failover and gateways start afterwards), the
// target index is fixed and the rounds terminate.

// Recovery aligns a restarted replica with its peers: a puller (the
// replica's SyncProto handler, serving donor requests as ServeSync does)
// driven in rounds over the peers.
type Recovery struct {
	*puller
	peers []proc.ID
}

// NewRecovery wires recovery + donor serving onto the endpoint. Call in
// place of ServeSync, between core.NewNode and Start; then node.Start and
// Run BEFORE StartFailover and gateway wiring. The SyncConfig is ignored.
func NewRecovery(ep *rchannel.Endpoint, p *Passive, peers []proc.ID, _ SyncConfig) *Recovery {
	return &Recovery{puller: newPuller(ep, p, false), peers: peers}
}

// recoveryDeadAfter is how many consecutive failed pulls write a peer off
// as dead for the rest of this Run. One failure is NOT enough: a slow RPC
// during the restart stampede (every replica recovering at once) must not
// end the round as "aligned" while the only peer holding the missing
// delta was merely skipped — that would bake the divergence in the moment
// traffic starts.
const recoveryDeadAfter = 3

// Run pulls from every peer until a full round finds none ahead of this
// replica AND no reachable peer went unheard, or the deadline passes.
// Peers that fail recoveryDeadAfter consecutive pulls are treated as dead
// for good; alignment with the live set is what matters (a replica that
// comes back later recovers against the then-live set).
func (r *Recovery) Run(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	per := max(timeout/10, 10*time.Millisecond)
	fails := make(map[proc.ID]int)
	for {
		behind, unsettled := false, false
		for _, peer := range r.peers {
			if peer == r.p.Self() || fails[peer] >= recoveryDeadAfter {
				continue
			}
			b, err := r.drain(peer, per)
			behind = behind || b
			switch {
			case err == nil:
				fails[peer] = 0
			case !errors.Is(err, ErrTimeout):
				return err
			default:
				if fails[peer]++; fails[peer] < recoveryDeadAfter {
					unsettled = true // retry this peer next round before concluding
				}
			}
		}
		r.mu.Lock()
		r.stats.Rounds++
		r.mu.Unlock()
		if !behind && !unsettled {
			return nil
		}
		if time.Now().After(deadline) {
			if behind {
				return fmt.Errorf("replication: recovery: %w", ErrTimeout)
			}
			return nil // aligned with everyone still answering
		}
	}
}
