package replication

// Catch-up protocol: the one way a replica at commit index h comes up to a
// donor's height — a fresh or wiped follower (NewFollower + Syncer), a
// durable follower restarting from its own disk, and every durable member
// realigning after a whole-cluster restart (Recovery, storage.go).
//
// The protocol runs over the reliable channel (rchannel), point to point,
// outside the broadcast substrate — a follower holds no vote and sends no
// broadcast, so the group's f < n/2 crash budget is untouched by followers
// joining, dying and rejoining. Every replica registers the same handler
// (a puller): it serves donor requests and routes replies to its own pulls.
//
//	puller                           donor (any full replica)
//	  | PULL{reqid, from, snap}        |
//	  |------------------------------->|  the donor answers with its log
//	  |   STATE{reqid, entries | snap} |  entries after `from`, or a fresh
//	  |<-------------------------------|  snapshot if `from` is out of the
//	  |        ... until from ≥ index  |  retained window (or snap is set)
//	  | BARRIER{reqid}                 |
//	  |------------------------------->|  read-index: the donor (if primary)
//	  |      BARRIER_RESP{reqid, idx}  |  runs a real ReadBarrier and
//	  |<-------------------------------|  returns its post-barrier index
//	  | RENEW{sessions}                |  forwarded lease renewals (never
//	  |------------------------------->|  tick the replicated clock)
//
// A replica with no installed state (commit index 0 at start) sets snap on
// its first pull: the complete state (view, dedup table, lease clock) comes
// in one snapshot, and entries follow. A replica that replayed its own disk
// asks only for the delta after its index.
//
// The follower's pull loop never stops: a follower is a permanently
// catching-up replica whose staleness is bounded by the pull interval;
// Monotonic reads wait on the commit index exactly as at any backup, and
// Linearizable reads use the read-index barrier, so an installed follower
// serves reads at full backup parity.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
)

// SyncProto is the rchannel protocol name of the state-transfer traffic.
const SyncProto = "repl.sync"

// Donor-side bounds: one pull answer carries at most syncMaxEntries log
// entries, and a proxied read barrier waits at most syncBarrierTimeout.
const (
	syncMaxEntries     = 512
	syncBarrierTimeout = 5 * time.Second
)

// Wire messages of the sync protocol.
type (
	sPull struct {
		ReqID uint64
		From  uint64
		// Snap forces a full snapshot regardless of the donor's retained
		// log: a fresh follower's first pull needs the complete state (view,
		// dedup table, lease clock) even when the commit-index gap alone
		// could be covered by entry replay.
		Snap bool
		// T0 is the sender's clock at send time (unix nanos) — echoed back
		// with the donor's receive/serve times so recovery diagnostics can
		// attribute RPC latency to the request path, the donor, or the
		// response path (meaningful within one process, i.e. in tests).
		T0 int64
	}
	sState struct {
		ReqID    uint64
		From     uint64 // echo of the pull cursor (entry replay base)
		Index    uint64 // donor's commit index when answering
		Snapshot []byte // set when From precedes the donor's retained log
		Entries  []LogRec
		T0       int64 // echoed request timestamp
		T1       int64 // donor clock when the pull was handled
		T2       int64 // donor clock when the response was sent
	}
	sBarrier     struct{ ReqID uint64 }
	sBarrierResp struct {
		ReqID   uint64
		Index   uint64
		Code    uint8
		Primary proc.ID // redirect hint with syncNotPrimary
	}
	sRenew struct{ Sessions []string }
)

// sBarrierResp codes.
const (
	syncOK uint8 = iota
	syncNotPrimary
	syncTimeout
)

func init() {
	msg.Register(sPull{})
	msg.Register(sState{})
	msg.Register(sBarrier{})
	msg.Register(sBarrierResp{})
	msg.Register(sRenew{})
}

// SyncConfig is NewRecovery's configuration argument; it has no settings.
type SyncConfig struct {
	// Join is ignored: followers never enter the membership view.
	//
	// Deprecated: ignored.
	Join func(proc.ID) error
}

// ServeSync registers the donor side of the state-transfer protocol on the
// node's endpoint. Call between core.NewNode and Start (rchannel handlers
// must be registered before the endpoint starts). Every full replica of the
// group should serve sync, so followers can fail over between donors.
func ServeSync(ep *rchannel.Endpoint, p *Passive) {
	newPuller(ep, p, false)
}

// SyncStats is the catch-up accounting shared by the follower Syncer and the
// restart Recovery.
type SyncStats struct {
	Rounds    uint64 // recovery passes over the peers
	Pulls     uint64 // pull RPCs attempted
	Failures  uint64 // pull RPCs that timed out or failed to send
	Snapshots uint64 // snapshots installed
	Bytes     uint64 // snapshot bytes installed
	Entries   uint64 // log entries applied

	// Latency attribution of the last completed pull (including ones whose
	// waiter had already timed out), from the timing echoes: request
	// transit, donor handling, response transit.
	LastReqMS   float64
	LastDonorMS float64
	LastRespMS  float64
}

// puller is a replica's end of the sync protocol: the SyncProto handler
// (donor requests are served, replies are routed to waiting requests), the
// correlated-RPC table, and the drain step that pulls from one donor until
// this replica reaches the donor's commit index.
type puller struct {
	p    *Passive
	ep   *rchannel.Endpoint
	stop chan struct{} // closed by Syncer.Stop; aborts waits

	mu      sync.Mutex
	nextReq uint64
	waiters map[uint64]chan any
	fresh   bool // no installed state yet: the next pull asks for a snapshot
	stats   SyncStats
}

func newPuller(ep *rchannel.Endpoint, p *Passive, fresh bool) *puller {
	pl := &puller{p: p, ep: ep, stop: make(chan struct{}), waiters: make(map[uint64]chan any), fresh: fresh}
	ep.Handle(SyncProto, pl.onNet)
	return pl
}

// Stats returns a snapshot of the catch-up counters.
func (pl *puller) Stats() SyncStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
}

func (pl *puller) onNet(from proc.ID, body any) {
	// The dispatch goroutine must not block: everything that can wait
	// (snapshot capture, barriers, broadcasts) runs on its own goroutine.
	var id uint64
	switch m := body.(type) {
	case sPull:
		go servePull(pl.ep, pl.p, from, m)
		return
	case sBarrier:
		go serveBarrier(pl.ep, pl.p, from, m)
		return
	case sRenew:
		go func(sessions []string) { _ = pl.p.LeaseRenew(sessions) }(m.Sessions)
		return
	case sState:
		id = m.ReqID
		if m.T0 != 0 {
			now := time.Now().UnixNano()
			pl.mu.Lock()
			pl.stats.LastReqMS = float64(m.T1-m.T0) / 1e6
			pl.stats.LastDonorMS = float64(m.T2-m.T1) / 1e6
			pl.stats.LastRespMS = float64(now-m.T2) / 1e6
			pl.mu.Unlock()
		}
	case sBarrierResp:
		id = m.ReqID
	default:
		return
	}
	pl.mu.Lock()
	ch := pl.waiters[id]
	delete(pl.waiters, id)
	pl.mu.Unlock()
	if ch != nil {
		ch <- body
	}
}

// rpc sends one correlated request and waits for its reply. A request sent
// before this endpoint knew the donor's current incarnation is lost in the
// reliable channel's transition window; when the endpoint reports that an
// incarnation moved (IncarnationMoved) and PeerIncarnation(donor) changed
// while the request is outstanding, the same request is sent again. Pulls
// and barriers are idempotent and the waiter keeps the first reply.
func (pl *puller) rpc(donor proc.ID, timeout time.Duration, mk func(id uint64) any) (any, error) {
	pl.mu.Lock()
	pl.nextReq++
	id := pl.nextReq
	ch := make(chan any, 1)
	pl.waiters[id] = ch
	pl.mu.Unlock()
	defer func() {
		pl.mu.Lock()
		delete(pl.waiters, id)
		pl.mu.Unlock()
	}()
	req := mk(id)
	moved := pl.ep.IncarnationMoved()
	inc := pl.ep.PeerIncarnation(donor)
	if err := pl.ep.Send(donor, SyncProto, req); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case v := <-ch:
			return v, nil
		case <-moved:
			moved = pl.ep.IncarnationMoved()
			if now := pl.ep.PeerIncarnation(donor); now != inc {
				inc = now
				if err := pl.ep.Send(donor, SyncProto, req); err != nil {
					return nil, err
				}
			}
		case <-timer.C:
			return nil, ErrTimeout
		case <-pl.stop:
			return nil, ErrTimeout
		}
	}
}

// drain pulls from donor, installing snapshots and applying entries, until
// this replica's commit index reaches the donor's as of its last answer.
// behind reports that some answer still left the replica short of the
// donor (it needed more than one pull). An unanswered pull returns an
// error wrapping ErrTimeout; a snapshot that fails to install returns that
// error.
func (pl *puller) drain(donor proc.ID, timeout time.Duration) (behind bool, err error) {
	for {
		pl.mu.Lock()
		snap := pl.fresh
		pl.stats.Pulls++
		pl.mu.Unlock()
		v, err := pl.rpc(donor, timeout, func(id uint64) any {
			return sPull{ReqID: id, From: pl.p.CommitIndex(), Snap: snap, T0: time.Now().UnixNano()}
		})
		st, ok := v.(sState)
		if err != nil || !ok {
			pl.mu.Lock()
			pl.stats.Failures++
			pl.mu.Unlock()
			return behind, fmt.Errorf("replication: pull from %s: %w", donor, ErrTimeout)
		}
		if st.Snapshot != nil {
			if err := pl.p.InstallSnapshot(st.Snapshot); err != nil {
				return behind, err
			}
			pl.mu.Lock()
			pl.fresh = false
			pl.stats.Snapshots++
			pl.stats.Bytes += uint64(len(st.Snapshot))
			pl.mu.Unlock()
		}
		if len(st.Entries) > 0 {
			pl.p.ApplySyncEntries(st.From, st.Entries)
			pl.mu.Lock()
			pl.stats.Entries += uint64(len(st.Entries))
			pl.mu.Unlock()
		}
		if pl.p.CommitIndex() >= st.Index {
			return behind, nil
		}
		behind = true
		select {
		case <-pl.stop:
			return behind, ErrTimeout
		default:
		}
	}
}

func servePull(ep *rchannel.Endpoint, p *Passive, from proc.ID, m sPull) {
	resp := sState{ReqID: m.ReqID, From: m.From, T0: m.T0, T1: time.Now().UnixNano()}
	if entries, ok := p.SyncSince(m.From, syncMaxEntries); ok && !m.Snap {
		resp.Entries = entries
	} else {
		resp.Snapshot = p.EncodeSnapshot()
	}
	resp.Index = p.CommitIndex()
	resp.T2 = time.Now().UnixNano()
	_ = ep.Send(from, SyncProto, resp)
}

func serveBarrier(ep *rchannel.Endpoint, p *Passive, from proc.ID, m sBarrier) {
	resp := sBarrierResp{ReqID: m.ReqID}
	idx, err := p.ReadBarrier(syncBarrierTimeout, nil)
	switch {
	case err == nil:
		resp.Code, resp.Index = syncOK, idx
	case isNotPrimary(err):
		resp.Code, resp.Primary = syncNotPrimary, p.Primary()
	default:
		resp.Code = syncTimeout
	}
	_ = ep.Send(from, SyncProto, resp)
}

func isNotPrimary(err error) bool {
	return errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrDemoted)
}

// SyncerConfig parameterises a follower's catch-up loop.
type SyncerConfig struct {
	// Donors are the full replicas the follower may pull from (rotated on
	// failure; barriers and lease renewals target the current primary).
	Donors []proc.ID
	// Interval is the pull cadence — the follower's staleness bound
	// (default 5ms, suited to the in-memory network).
	Interval time.Duration
	// Timeout bounds one pull RPC before rotating donors (default 250ms).
	Timeout time.Duration
}

// Syncer drives a follower replica: it pulls the delivered-command log (or
// a snapshot) from donors on a fixed cadence, and provides the follower's
// barrier/lease proxies.
type Syncer struct {
	*puller
	cfg SyncerConfig
	rr  int // donor rotation cursor, under mu

	installed     chan struct{}
	installedOnce sync.Once

	startOnce sync.Once
	done      sync.WaitGroup
}

// NewSyncer wires a syncer onto the follower's endpoint. Call before
// ep.Start (it registers the SyncProto handler) and after any
// ReplayStorage: a follower that replayed state from disk pulls only the
// delta after it, a follower at commit index 0 pulls a snapshot first.
// Then Start the endpoint and the syncer.
func NewSyncer(p *Passive, ep *rchannel.Endpoint, cfg SyncerConfig) *Syncer {
	if len(cfg.Donors) == 0 {
		panic("replication: syncer needs at least one donor")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	s := &Syncer{
		puller:    newPuller(ep, p, p.CommitIndex() == 0),
		cfg:       cfg,
		installed: make(chan struct{}),
	}
	p.SetBarrierProxy(s.barrier)
	p.SetLeaseProxy(s.renew)
	return s
}

// Start launches the pull loop: the first pull goes out at once, the rest
// every Interval.
func (s *Syncer) Start() {
	s.startOnce.Do(func() {
		s.done.Add(1)
		go s.loop()
	})
}

// Stop halts the pull loop.
func (s *Syncer) Stop() {
	select {
	case <-s.stop:
		return
	default:
		close(s.stop)
	}
	s.done.Wait()
}

// Installed is closed once the follower has caught up to a donor's commit
// index for the first time — the point from which it serves reads at full
// backup parity.
func (s *Syncer) Installed() <-chan struct{} { return s.installed }

func (s *Syncer) loop() {
	defer s.done.Done()
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		s.pull()
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
	}
}

// pull performs one catch-up round: a drain of the current donor (full
// responses mean more is waiting, so it pulls again immediately rather than
// sleeping an interval), rotating donors when it fails.
func (s *Syncer) pull() {
	if _, err := s.drain(s.pickDonor(), s.cfg.Timeout); err != nil {
		s.rotateDonor()
		return
	}
	s.installedOnce.Do(func() { close(s.installed) })
}

// pickDonor returns the follower's current pull target.
func (s *Syncer) pickDonor() proc.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Donors[s.rr%len(s.cfg.Donors)]
}

func (s *Syncer) rotateDonor() {
	s.mu.Lock()
	s.rr++
	s.mu.Unlock()
}

// primaryDonor targets the current primary (for barriers and renewals),
// falling back to the rotation cursor while the view is unknown.
func (s *Syncer) primaryDonor() proc.ID {
	primary := s.p.Primary()
	for _, d := range s.cfg.Donors {
		if d == primary {
			return d
		}
	}
	return s.pickDonor()
}

// barrier is the follower's read-index proxy (SetBarrierProxy). If the
// targeted donor turns out not to be the primary (the follower's view can
// lag mid-failover), it follows the donor's hint for one hop.
func (s *Syncer) barrier(timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	if timeout <= 0 || timeout > s.cfg.Timeout*20 {
		timeout = s.cfg.Timeout * 20
	}
	donor := s.primaryDonor()
	for hop := 0; ; hop++ {
		v, err := s.rpc(donor, timeout, func(id uint64) any { return sBarrier{ReqID: id} })
		if err != nil {
			return 0, err
		}
		resp, ok := v.(sBarrierResp)
		if !ok {
			return 0, ErrTimeout
		}
		switch resp.Code {
		case syncOK:
			return resp.Index, nil
		case syncNotPrimary:
			if hop == 0 && resp.Primary != "" && resp.Primary != donor && s.isDonor(resp.Primary) {
				donor = resp.Primary
				continue
			}
			return 0, fmt.Errorf("%w (primary is %s)", ErrNotPrimary, resp.Primary)
		default:
			return 0, ErrTimeout
		}
	}
}

func (s *Syncer) isDonor(id proc.ID) bool {
	for _, d := range s.cfg.Donors {
		if d == id {
			return true
		}
	}
	return false
}

// renew is the follower's lease forwarding proxy (SetLeaseProxy).
func (s *Syncer) renew(sessions []string) error {
	if len(sessions) == 0 {
		return nil
	}
	return s.ep.Send(s.primaryDonor(), SyncProto, sRenew{Sessions: sessions})
}
