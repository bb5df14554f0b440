package transport

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Registry hookups for the transport layer. Wire-path counters are held in
// a tcpMetrics struct resolved once per event through an atomic pointer
// (nil until RegisterMetrics), so the uninstrumented cost is one load and
// one branch; queue depth and connection count are gauge-funcs computed at
// scrape time from the connection table, never touched on the send path.

// tcpMetrics is the TCP transport's instrument set.
type tcpMetrics struct {
	framesOut  *telemetry.Counter
	bytesOut   *telemetry.Counter
	framesIn   *telemetry.Counter
	bytesIn    *telemetry.Counter
	queueDrops *telemetry.Counter // outbound write-queue overflow / dead conn
	inboxDrops *telemetry.Counter // inbound inbox overflow, incl. GroupMux drops
}

func (m *tcpMetrics) frameOut(n int) {
	if m == nil {
		return
	}
	m.framesOut.Inc()
	m.bytesOut.Add(uint64(n))
}

func (m *tcpMetrics) frameIn(n int) {
	if m == nil {
		return
	}
	m.framesIn.Inc()
	m.bytesIn.Add(uint64(n))
}

func (m *tcpMetrics) queueDrop() {
	if m == nil {
		return
	}
	m.queueDrops.Inc()
}

func (m *tcpMetrics) inboxDrop() {
	if m == nil {
		return
	}
	m.inboxDrops.Inc()
}

// countInboxDrop counts a frame a GroupMux over this transport dropped.
func (t *TCPTransport) countInboxDrop() { t.metrics.Load().inboxDrop() }

// RegisterMetrics binds the transport's counters and gauges into scope.
// Safe to call at any point (instruments attach atomically); call once.
func (t *TCPTransport) RegisterMetrics(s *telemetry.Scope) {
	if s == nil {
		return
	}
	m := &tcpMetrics{
		framesOut:  s.Counter("gcs_transport_frames_out_total", "Frames queued to peer connections."),
		bytesOut:   s.Counter("gcs_transport_bytes_out_total", "Frame bytes (incl. length prefix) queued to peer connections."),
		framesIn:   s.Counter("gcs_transport_frames_in_total", "Frames received from peer connections."),
		bytesIn:    s.Counter("gcs_transport_bytes_in_total", "Frame payload bytes received from peer connections."),
		queueDrops: s.Counter("gcs_transport_queue_drops_total", "Outbound frames dropped (write-queue overflow or dead connection)."),
		inboxDrops: s.Counter("gcs_transport_inbox_drops_total", "Inbound frames dropped (inbox overflow, or a group mux's full or closed inbox or unknown tag)."),
	}
	t.metrics.Store(m)
	s.GaugeFunc("gcs_transport_write_queue_depth",
		"Frames parked at connection write loops, summed over connections.",
		func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			depth := 0
			for _, tc := range t.conns {
				depth += len(tc.out)
			}
			return float64(depth)
		})
	s.GaugeFunc("gcs_transport_connections",
		"Established outbound peer connections.",
		func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.conns))
		})
	RegisterFramePool(s)
}

// Frame pool accounting: always-on atomics (one add per Get/Put is noise
// next to the copy the frame exists for), exported on demand.
var (
	poolHits   atomic.Uint64 // GetFrame served from pooled capacity
	poolMisses atomic.Uint64 // GetFrame fell back to make([]byte)
)

// PoolStats returns the frame pool hit/miss counters.
func PoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

// RegisterFramePool exports the process-wide frame pool hit rate. The pool
// is global, so callers should register it under a node-scoped (not
// per-shard) scope exactly once.
func RegisterFramePool(s *telemetry.Scope) {
	if s == nil {
		return
	}
	s.CounterFunc("gcs_transport_frame_pool_hits_total",
		"Frame buffers served from pooled capacity.",
		func() float64 { return float64(poolHits.Load()) })
	s.CounterFunc("gcs_transport_frame_pool_misses_total",
		"Frame buffers allocated fresh (pool capacity too small).",
		func() float64 { return float64(poolMisses.Load()) })
}

// RegisterStats exports a Stats block (the simulated network's traffic
// counters) under scope.
func RegisterStats(s *telemetry.Scope, st *Stats) {
	if s == nil || st == nil {
		return
	}
	s.CounterFunc("gcs_transport_packets_sent_total",
		"Packets submitted to Send.",
		func() float64 { return float64(st.sent.Load()) })
	s.CounterFunc("gcs_transport_packets_delivered_total",
		"Packets handed to a receiver.",
		func() float64 { return float64(st.delivered.Load()) })
	s.CounterFunc("gcs_transport_packets_dropped_total",
		"Packets lost (loss, partition, crash, overflow).",
		func() float64 { return float64(st.dropped.Load()) })
	s.CounterFunc("gcs_transport_payload_bytes_total",
		"Payload bytes submitted to Send.",
		func() float64 { return float64(st.bytes.Load()) })
}
