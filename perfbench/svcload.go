package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// kv is the key space of a service workload. Each key has one owner lane,
// so the versions written to a key are monotone; acked is readable by all.
type kv struct {
	keys, owners, valSize int
	issued                []uint64 // owner-only
	acked                 []atomic.Uint64
	ackedPuts, tried      atomic.Uint64 // puts acknowledged / attempted, whole run
	nextID                atomic.Uint64
	bad                   violations
}

func newKV(keys, owners, valSize int) *kv {
	return &kv{keys: keys, owners: owners, valSize: valSize,
		issued: make([]uint64, keys), acked: make([]atomic.Uint64, keys)}
}

func keyName(k int) string { return "k" + strconv.Itoa(k) }

// putOp builds "put <k> <version>.<op id>.<pad>" at the value size.
func (s *kv) putOp(key int, version, id uint64) []byte {
	head := fmt.Sprintf("put %s %d.%d.", keyName(key), version, id)
	val := len(head) - len("put ") - len(keyName(key)) - 1
	op := []byte(head)
	for i := val; i < s.valSize; i++ {
		op = append(op, 'x')
	}
	return op
}

// put writes the next version of key; only key's owner may call it.
func (s *kv) put(cl *service.Client, key int, tr *tracer) error {
	version := s.issued[key] + 1
	s.issued[key] = version
	id := s.nextID.Add(1)
	s.tried.Add(1)
	sid, st := tr.begin()
	res, err := cl.Call(s.putOp(key, version, id))
	tr.end(sid, spClientOp, id, 0, st)
	if err != nil {
		return err
	}
	if string(res) != "ok" {
		s.bad.add(fmt.Errorf("put of key %d answered %q", key, res))
		return nil
	}
	s.acked[key].Store(version)
	s.ackedPuts.Add(1)
	return nil
}

// getLinearizable reads key at Linearizable and checks its version.
func (s *kv) getLinearizable(cl *service.Client, key int, tr *tracer) error {
	before := s.acked[key].Load()
	sid, st := tr.begin()
	res, err := cl.ReadAt([]byte("get "+keyName(key)), service.ReadLinearizable)
	tr.end(sid, spClientOp, 0, 0, st)
	if err != nil {
		return err
	}
	s.bad.add(checkRead(key, res, before))
	return nil
}

// getStale reads key at bounded staleness from wherever the client is.
func (s *kv) getStale(cl *service.Client, key int, tr *tracer) error {
	sid, st := tr.begin()
	res, err := cl.ReadAtMost([]byte("get "+keyName(key)), 250*time.Millisecond)
	tr.end(sid, spClientOp, 0, 0, st)
	if err != nil {
		return err
	}
	if _, perr := parseVersion(res); perr != nil {
		s.bad.add(perr)
	}
	return nil
}

// lane is one closed-loop op stream: one pipelined op of a session. A lane
// that writes owns the keys k with k % owners == owner; others have owner -1.
type lane struct {
	cl    *service.Client
	owner int
	pick  func(r *rand.Rand) kind
}

// preload writes every key once through its owner lane, so the window
// measures a full key space and the heap stops growing with it.
func (r *svcRun) preload(lanes []lane) error {
	errc := make(chan error, len(lanes))
	for _, ln := range lanes {
		go func(ln lane) {
			var err error
			for k := ln.owner; ln.owner >= 0 && k < r.kv.keys && err == nil; k += r.kv.owners {
				err = r.kv.put(ln.cl, k, r.c.p.tr)
			}
			errc <- err
		}(ln)
	}
	var err error
	for range lanes {
		err = errors.Join(err, <-errc)
	}
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// svcRun holds what the service workloads share.
type svcRun struct {
	cfg    runConfig
	c      *svcCluster
	kv     *kv
	cls    []*service.Client
	setupS float64
}

// startSvc times cfg.setups cluster builds; each ends when a client's first
// put is acknowledged by the warmed cluster (follower installed, lease held).
func startSvc(cfg runConfig, withFollower bool, s *kv, clientCfgs []service.ClientConfig) (*svcRun, error) {
	p := newProbes(cfg.seed)
	type built struct {
		c   *svcCluster
		cls []*service.Client
	}
	teardown := func(b built) {
		for _, cl := range b.cls {
			cl.Close()
		}
		b.c.stop()
	}
	b, setupS, err := timeSetups(cfg, func(i int) (built, error) {
		c, err := buildSvcCluster(cfg.seed+int64(i), cfg.storageDir(i), withFollower, p)
		if err != nil {
			return built{}, err
		}
		b := built{c: c}
		if err := c.leaseHeld(30 * time.Second); err != nil {
			teardown(b)
			return built{}, err
		}
		for _, cc := range clientCfgs {
			cc.Dial = c.dial()
			cc.OpTimeout = 10 * time.Second
			cl, err := service.NewClient(cc)
			if err != nil {
				teardown(b)
				return built{}, err
			}
			b.cls = append(b.cls, cl)
		}
		if res, err := b.cls[0].Call([]byte("put setup " + strconv.Itoa(i))); err != nil || string(res) != "ok" {
			teardown(b)
			return built{}, fmt.Errorf("first put: %q %v", res, err)
		}
		return b, nil
	}, teardown)
	if err != nil {
		return nil, err
	}
	return &svcRun{cfg: cfg, c: b.c, kv: s, cls: b.cls, setupS: setupS}, nil
}

func (r *svcRun) stop() {
	for _, cl := range r.cls {
		cl.Close()
	}
	r.c.stop()
}

// counters reads the layers' Stats() across the core replicas.
func (r *svcRun) counters() counters {
	var c counters
	for _, m := range r.c.members {
		b := m.rep.BatchStats()
		c.batches += b.Batches
		c.batchOps += b.Ops
		l := m.rep.LeaderLeaseStats()
		c.leaseReads += l.LeaseReads
		c.fallbacks += l.BarrierFallbacks
		c.barriers += m.rep.ReadBarrierStats().Broadcasts
		st := m.eng.Stats()
		c.syncs += st.Syncs
		c.appends += st.Appends
		c.appendBytes += st.AppendedBytes
		c.retransmits += m.node.Endpoint().Stats().Retransmits
		g := m.node.BroadcastStats()
		c.fast += g.FastDelivered
		c.ordered += g.OrderedDelivered
		c.bounds += g.Boundaries
		c.viewSeq += m.node.View().Seq
	}
	c.net = r.c.net.Stats()
	for _, cl := range r.cls {
		st := cl.Stats()
		c.retries += st.Redirects + st.UnavailableRetries + st.DegradedAnswers + st.TooStaleRetries
		c.tooStale += st.TooStaleRetries
	}
	c.streamFrames = r.c.p.streamFrames.Load()
	c.streamB = r.c.p.streamBytes.Load()
	return c
}

// closedLoop runs the lanes from now until clk.end, recording every op.
func (r *svcRun) closedLoop(lanes []lane, clk clock, rec *recorder) *sync.WaitGroup {
	var wg sync.WaitGroup
	tr := r.c.p.tr
	for i, ln := range lanes {
		wg.Add(1)
		go func(i int, ln lane) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r.cfg.seed), uint64(i)))
			per := r.kv.keys / r.kv.owners
			for {
				due := time.Now()
				if !due.Before(clk.end) {
					return
				}
				k := ln.pick(rng)
				var err error
				switch k {
				case kPut:
					err = r.kv.put(ln.cl, ln.owner+r.kv.owners*rng.IntN(per), tr)
				case kGet:
					err = r.kv.getLinearizable(ln.cl, rng.IntN(r.kv.keys), tr)
				case kStale:
					err = r.kv.getStale(ln.cl, rng.IntN(r.kv.keys), tr)
				}
				rec.record(k, due, time.Now(), err)
			}
		}(i, ln)
	}
	return &wg
}

// finish stops the load, quiesces, runs the gate and assembles the result.
func (r *svcRun) finish(rec *recorder, w window, extra layerInput, writes []kind) (*result, error) {
	res := &result{attempted: rec.att, failed: rec.failed}
	res.e2e = e2eMetrics(rec, r.setupS)
	res.info = clientMetrics(rec, w, writes, allParts())
	res.gate = errors.Join(r.kv.bad.err(), r.quiesceAndCheck())
	var spans []span
	var frames [][]byte
	if r.cfg.trace {
		spans = r.c.p.tr.collected()
		frames = r.c.p.frames.sample()
	}
	r.stop()
	if r.cfg.trace {
		extra.writes, extra.rec, extra.w, extra.nodes, extra.spans = writes, rec, w, len(r.c.members), spans
		extra.codec = replayCodec(frames)
		res.layer = layerMetrics(extra)
		if err := writeSpans(r.cfg.spansPath(), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// quiesceAndCheck waits until every replica (and f0) has applied the same
// updates, then requires identical snapshots and the applied count to match
// the acknowledged puts (between acknowledged and attempted when some failed).
func (r *svcRun) quiesceAndCheck() error {
	names, stores := r.c.stores()
	// The kept build's setup put counts too.
	acked := r.kv.ackedPuts.Load() + 1
	tried := r.kv.tried.Load() + 1
	deadline := time.Now().Add(20 * time.Second)
	for {
		applied := make([]int, len(stores))
		same := true
		for i, st := range stores {
			applied[i] = st.Applied()
			same = same && applied[i] == applied[0]
		}
		appliedErr := checkApplied(names, applied, acked, tried)
		if same && appliedErr == nil {
			digests := make([][]byte, len(stores))
			for i, st := range stores {
				digests[i] = st.Snapshot()
			}
			if err := checkDigests(names, digests); err == nil || time.Now().After(deadline) {
				return err
			}
		} else if time.Now().After(deadline) {
			if appliedErr != nil {
				return fmt.Errorf("%w (%s)", appliedErr, r.c.describe())
			}
			return fmt.Errorf("replicas never converged: %s", r.c.describe())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (cfg runConfig) spansPath() string {
	return filepath.Join(cfg.dir, "spans-"+cfg.workload+".csv")
}

func always(k kind) func(*rand.Rand) kind { return func(*rand.Rand) kind { return k } }

// runWrite: 2 sessions x 32 puts in flight, uniform over 10,000 keys,
// 64-byte values, no reads.
func runWrite(cfg runConfig) (*result, error) {
	const sessions, depth = 2, 32
	s := newKV(10000, sessions*depth, 64)
	ccs := make([]service.ClientConfig, sessions)
	for i := range ccs {
		ccs[i] = service.ClientConfig{Addrs: coreIDStrings(), MaxInflight: depth}
	}
	r, err := startSvc(cfg, false, s, ccs)
	if err != nil {
		return nil, err
	}
	var lanes []lane
	for i := 0; i < sessions*depth; i++ {
		lanes = append(lanes, lane{cl: r.cls[i%sessions], owner: i, pick: always(kPut)})
	}
	if err := r.preload(lanes); err != nil {
		r.stop()
		return nil, err
	}
	clk := newClock(time.Now().Add(cfg.warm), cfg)
	rec := &recorder{clk: clk}
	wg := r.closedLoop(lanes, clk, rec)
	w := observe(clk, r.c.p.tr, r.counters)
	wg.Wait()
	return r.finish(rec, w, layerInput{}, []kind{kPut})
}

// runReadMostly: session A on the core gateways, 16 in flight, 90%
// Linearizable gets and 10% 1 KiB puts; session B sticky on follower f0's
// gateway, 16 in flight, all ReadAtMost(250ms).
func runReadMostly(cfg runConfig) (*result, error) {
	const depth = 16
	s := newKV(10000, depth, 1024)
	ccs := []service.ClientConfig{
		{Addrs: coreIDStrings(), MaxInflight: depth},
		{Addrs: []string{"f0"}, Sticky: true, MaxInflight: depth},
	}
	r, err := startSvc(cfg, true, s, ccs)
	if err != nil {
		return nil, err
	}
	var lanes []lane
	mixA := func(rng *rand.Rand) kind {
		if rng.IntN(10) == 0 {
			return kPut
		}
		return kGet
	}
	for i := 0; i < depth; i++ {
		lanes = append(lanes, lane{cl: r.cls[0], owner: i, pick: mixA})
		lanes = append(lanes, lane{cl: r.cls[1], owner: -1, pick: always(kStale)})
	}
	if err := r.preload(lanes); err != nil {
		r.stop()
		return nil, err
	}
	clk := newClock(time.Now().Add(cfg.warm), cfg)
	rec := &recorder{clk: clk}
	wg := r.closedLoop(lanes, clk, rec)
	ages := sampleAges(r, clk)
	w := observe(clk, r.c.p.tr, r.counters)
	wg.Wait()
	return r.finish(rec, w, layerInput{ages: <-ages}, []kind{kPut})
}

// sampleAges samples f0's StateAge every 10ms through the window.
func sampleAges(r *svcRun, clk clock) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var ages []float64
		sleepUntil(clk.start)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for time.Now().Before(clk.end) {
			if a, ok := r.c.f0.f.Replica.StateAge(); ok {
				ages = append(ages, ms(a))
			}
			<-t.C
		}
		out <- ages
	}()
	return out
}

func coreIDStrings() []string {
	out := make([]string, len(coreIDs))
	for i, id := range coreIDs {
		out[i] = string(id)
	}
	return out
}
