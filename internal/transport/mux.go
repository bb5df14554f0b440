package transport

// Group multiplexer: several independent protocol stacks ("groups") share
// one physical transport endpoint.
//
// Sharding the service's key space runs S complete replicated stacks on the
// same node set. Naively that costs S separate transports — over TCP, S×N
// connections and S listen ports per node. The mux keeps the physical layer
// at one endpoint per node: every outbound frame is prefixed with a uvarint
// group ID, and a single demux loop routes inbound frames to per-group
// inboxes. Each group sees a plain Transport and the layers above (reliable
// channel, consensus, broadcast, replication) run unchanged and unaware.
//
// The mux preserves the unreliable contract per group: a full group inbox
// drops the frame (retransmission above repairs it), and a frame tagged for
// an unknown group is dropped (a peer running more shards than we do).
// Every such drop is counted in the physical transport's accounting, as
// its own inbox drops are (see inboxDropCounter).
//
// Lifecycle: each group's Close (called by its own stack's shutdown) closes
// only that group's inbox; Close on the mux closes the physical transport,
// which ends the demux loop and closes the remaining groups.

import (
	"encoding/binary"
	"sync"

	"repro/internal/proc"
)

// inboxDropCounter is the optional transport hook the mux reports its
// drops to: TCP counts them in gcs_transport_inbox_drops_total, the
// simulated network in its Stats.Dropped, and FaultTransport passes them
// through to the transport it wraps.
type inboxDropCounter interface {
	countInboxDrop()
}

// GroupMux fans one physical Transport out to n logical group transports.
type GroupMux struct {
	tr     Transport
	drops  inboxDropCounter // nil when tr keeps no drop accounting
	groups []*muxGroup
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewGroupMux wraps tr into n logical transports (group IDs 0..n-1). The
// mux takes ownership of tr: Close closes it. Peers must agree on group
// numbering — group i here talks to group i everywhere.
func NewGroupMux(tr Transport, n int) *GroupMux {
	m := &GroupMux{tr: tr}
	m.drops, _ = tr.(inboxDropCounter)
	for i := 0; i < n; i++ {
		m.groups = append(m.groups, &muxGroup{
			mux:   m,
			id:    uint64(i),
			inbox: make(chan Packet, defaultQueue),
		})
	}
	m.wg.Add(1)
	go m.demuxLoop()
	return m
}

// Groups returns the number of logical groups.
func (m *GroupMux) Groups() int { return len(m.groups) }

// Group returns the logical transport of group i.
func (m *GroupMux) Group(i int) Transport { return m.groups[i] }

// Close shuts the physical transport down; the demux loop drains out and
// every group's inbox closes. Idempotent.
func (m *GroupMux) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.tr.Close()
	m.wg.Wait()
}

// demuxLoop routes inbound frames to their group's inbox by tag.
func (m *GroupMux) demuxLoop() {
	defer m.wg.Done()
	for pkt := range m.tr.Receive() {
		gid, n := binary.Uvarint(pkt.Data)
		if n <= 0 || gid >= uint64(len(m.groups)) {
			// Corrupt or unknown tag: drop (unreliable contract).
			PutFrame(pkt.Data)
			m.countDrop()
			continue
		}
		// The payload subslice shares the frame buffer; the group's consumer
		// recycles it (minus the tag prefix) when done.
		m.groups[gid].enqueue(Packet{From: pkt.From, Data: pkt.Data[n:]})
	}
	for _, g := range m.groups {
		g.Close()
	}
}

func (m *GroupMux) countDrop() {
	if m.drops != nil {
		m.drops.countInboxDrop()
	}
}

// muxGroup is one logical group's view of the shared endpoint.
type muxGroup struct {
	mux   *GroupMux
	id    uint64
	inbox chan Packet

	mu     sync.Mutex
	closed bool
}

var _ Transport = (*muxGroup)(nil)

func (g *muxGroup) Self() proc.ID { return g.mux.tr.Self() }

// prefixSender is the optional transport fast path for tagged sends: the
// transport folds prefix+data into the single copy it makes anyway,
// sparing the mux an intermediate buffer per frame. Both in-tree
// transports implement it; the generic path below covers any other.
type prefixSender interface {
	sendPrefixed(to proc.ID, prefix, data []byte)
}

// Send prefixes data with the group tag and forwards it on the shared
// endpoint.
func (g *muxGroup) Send(to proc.ID, data []byte) {
	var tag [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tag[:], g.id)
	if ps, ok := g.mux.tr.(prefixSender); ok {
		ps.sendPrefixed(to, tag[:n], data)
		return
	}
	// Generic transport: build the tagged frame ourselves (transports copy
	// on Send, so the pooled copy is recycled immediately).
	frame := GetFrame(n + len(data))
	copy(frame, tag[:n])
	copy(frame[n:], data)
	g.mux.tr.Send(to, frame)
	PutFrame(frame)
}

func (g *muxGroup) Receive() <-chan Packet { return g.inbox }

// Close closes this group's inbox only; the shared endpoint stays up for
// the other groups. Called by the group's own stack on shutdown.
func (g *muxGroup) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	close(g.inbox)
}

// enqueue delivers one inbound packet, dropping on overflow or after Close
// exactly like the physical transports do.
func (g *muxGroup) enqueue(pkt Packet) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		PutFrame(pkt.Data)
		g.mux.countDrop()
		return
	}
	select {
	case g.inbox <- pkt:
	default:
		PutFrame(pkt.Data)
		g.mux.countDrop()
	}
}
