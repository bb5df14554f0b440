package main

import (
	"bytes"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/kvdemo"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The wrappers below sit on the public interfaces the program already
// accepts. They time calls into each layer as spans and sample the frames
// crossing them for the codec replay; the program itself is unchanged.

// probes is what one cluster's wrappers share: the tracer, the frame sample
// and the stream counters.
type probes struct {
	tr     *tracer
	frames *sampler

	streamFrames atomic.Uint64 // frames sent on client streams, either side
	streamBytes  atomic.Uint64
}

func newProbes(seed int64) *probes {
	return &probes{tr: newTracer(), frames: newSampler(seed)}
}

// sampler keeps a uniform reservoir of frames offered while tracing is on.
type sampler struct {
	mu     sync.Mutex
	rng    *rand.Rand
	seen   uint64
	frames [][]byte
}

const sampleCap = 2048

func newSampler(seed int64) *sampler {
	return &sampler{rng: rand.New(rand.NewPCG(uint64(seed), 0x5eed))}
}

func (s *sampler) offer(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if len(s.frames) < sampleCap {
		s.frames = append(s.frames, bytes.Clone(b))
		return
	}
	if j := s.rng.Uint64N(s.seen); j < sampleCap {
		s.frames[j] = bytes.Clone(b)
	}
}

func (s *sampler) sample() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.frames...)
}

// opID parses the op ID the generator embeds in a put's value
// ("put <k> <version>.<id>.<pad>"). Ops without one yield 0.
func opID(op []byte) uint64 {
	f := bytes.Fields(op)
	if len(f) != 3 {
		return 0
	}
	parts := bytes.SplitN(f[2], []byte{'.'}, 3)
	if len(parts) < 2 {
		return 0
	}
	id, err := strconv.ParseUint(string(parts[1]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// tracedTransport wraps the unreliable transport under a node.
type tracedTransport struct {
	transport.Transport
	p *probes
}

func (t *tracedTransport) Send(to proc.ID, data []byte) {
	if t.p.tr.on.Load() {
		t.p.frames.offer(data)
	}
	t.Transport.Send(to, data)
}

// tracedConn wraps one client stream, at either end; every frame is counted
// once, at its sender.
type tracedConn struct {
	transport.StreamConn
	p *probes
}

func (c *tracedConn) Send(frame []byte) error {
	c.p.streamFrames.Add(1)
	c.p.streamBytes.Add(uint64(len(frame)))
	if c.p.tr.on.Load() {
		c.p.frames.offer(frame)
	}
	return c.StreamConn.Send(frame)
}

// tracedListener wraps a gateway's stream listener.
type tracedListener struct {
	transport.StreamListener
	p *probes
}

func (l *tracedListener) Accept() (transport.StreamConn, error) {
	c, err := l.StreamListener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{StreamConn: c, p: l.p}, nil
}

// tracedDialer wraps the client's dialer.
func tracedDialer(d service.Dialer, p *probes) service.Dialer {
	return func(addr string) (transport.StreamConn, error) {
		c, err := d(addr)
		if err != nil {
			return nil, err
		}
		return &tracedConn{StreamConn: c, p: p}, nil
	}
}

// tracedReplica wraps the replica handle a gateway drives.
type tracedReplica struct {
	service.Replica
	p *probes
}

func (r *tracedReplica) RequestSession(session string, seq, ack uint64, op []byte, timeout time.Duration) ([]byte, error) {
	id, st := r.p.tr.begin()
	res, err := r.Replica.RequestSession(session, seq, ack, op, timeout)
	if st >= 0 {
		r.p.tr.end(id, spRequest, opID(op), 0, st)
	}
	return res, err
}

func (r *tracedReplica) ReadBarrier(timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	id, st := r.p.tr.begin()
	idx, err := r.Replica.ReadBarrier(timeout, abort)
	r.p.tr.end(id, spBarrier, 0, 0, st)
	return idx, err
}

func (r *tracedReplica) WaitCommit(index uint64, timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	id, st := r.p.tr.begin()
	idx, err := r.Replica.WaitCommit(index, timeout, abort)
	r.p.tr.end(id, spWaitCommit, 0, 0, st)
	return idx, err
}

// delivering holds the ID of the stack.deliver span running on one node, so
// the spans its delivery goroutine opens below it can name their parent.
type delivering struct{ cur atomic.Uint64 }

// tracedDeliver wraps a node's delivery callback.
func tracedDeliver(fn core.DeliverFunc, p *probes, dv *delivering) core.DeliverFunc {
	return func(d gbcast.Delivery) {
		id, st := p.tr.begin()
		if st >= 0 {
			dv.cur.Store(id)
		}
		fn(d)
		if st >= 0 {
			dv.cur.Store(0)
			p.tr.end(id, spDeliver, 0, 0, st)
		}
	}
}

// tracedStore wraps the kvdemo state machine and its read function.
type tracedStore struct {
	*kvdemo.Store
	p  *probes
	dv *delivering
}

var _ replication.PassiveStateMachine = (*tracedStore)(nil)

func (s *tracedStore) Execute(op []byte) ([]byte, []byte) {
	id, st := s.p.tr.begin()
	res, upd := s.Store.Execute(op)
	if st >= 0 {
		s.p.tr.end(id, spExecute, opID(op), 0, st)
	}
	return res, upd
}

func (s *tracedStore) ApplyUpdate(update []byte) {
	id, st := s.p.tr.begin()
	s.Store.ApplyUpdate(update)
	if st >= 0 {
		s.p.tr.end(id, spApply, opID(update), s.dv.cur.Load(), st)
	}
}

func (s *tracedStore) Read(op []byte) []byte {
	id, st := s.p.tr.begin()
	res := s.Store.Read(op)
	s.p.tr.end(id, spRead, 0, 0, st)
	return res
}

// tracedEngine wraps a replica's storage engine.
type tracedEngine struct {
	storage.Engine
	p  *probes
	dv *delivering
}

func (e *tracedEngine) Append(rec storage.Record) error {
	id, st := e.p.tr.begin()
	err := e.Engine.Append(rec)
	if st >= 0 {
		e.p.frames.offer(rec.Data)
	}
	e.p.tr.end(id, spAppend, 0, e.dv.cur.Load(), st)
	return err
}

func (e *tracedEngine) Sync() error {
	id, st := e.p.tr.begin()
	err := e.Engine.Sync()
	e.p.tr.end(id, spSync, 0, e.dv.cur.Load(), st)
	return err
}
