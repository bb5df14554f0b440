package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/replication"
)

const (
	bankAccounts = 100
	bankSenders  = 2 // at s0 and s1
	bankDepth    = 8 // broadcasts outstanding per sender; 16 sits on the retransmission knee
)

// bankRun is the Section 4.2 bank driven through node.Gbcast. Each op's
// Amount is its op ID, so the delivery wrapper recognises it at the sender.
type bankRun struct {
	cfg     runConfig
	p       *probes
	c       *bankCluster
	dvs     []delivering
	pending sync.Map // op ID -> chan struct{}
	nextID  atomic.Uint64
	sent    atomic.Uint64 // broadcasts accepted by Gbcast, whole run
	setupS  float64
}

// deliver wraps node i's bank delivery: a gbcast.deliver span, then the
// completion signal when node i is the op's sender.
func (b *bankRun) deliver(i int, fn core.DeliverFunc) core.DeliverFunc {
	self := coreIDs[i]
	return func(d gbcast.Delivery) {
		op, _ := d.Body.(replication.BankOp)
		id, st := b.p.tr.begin()
		fn(d)
		b.p.tr.end(id, spGbcastDeliv, uint64(op.Amount), 0, st)
		if d.Origin == self {
			if ch, ok := b.pending.LoadAndDelete(uint64(op.Amount)); ok {
				close(ch.(chan struct{}))
			}
		}
	}
}

// broadcast issues one bank op at node i and waits for its delivery there.
func (b *bankRun) broadcast(i int, class, account string) error {
	id := b.nextID.Add(1)
	done := make(chan struct{})
	b.pending.Store(id, done)
	sid, st := b.p.tr.begin()
	err := b.c.nodes[i].Gbcast(class, replication.BankOp{Account: account, Amount: int64(id)})
	if err != nil {
		b.pending.Delete(id)
		return fmt.Errorf("gbcast: %w", err)
	}
	b.sent.Add(1)
	select {
	case <-done:
		b.p.tr.end(sid, spGbcastCall, id, 0, st)
		return nil
	case <-time.After(10 * time.Second):
		b.pending.Delete(id)
		return errors.New("broadcast not delivered at its sender within 10s")
	}
}

func (b *bankRun) counters() counters {
	var c counters
	for _, n := range b.c.nodes {
		c.retransmits += n.Endpoint().Stats().Retransmits
		g := n.BroadcastStats()
		c.fast += g.FastDelivered
		c.ordered += g.OrderedDelivered
		c.bounds += g.Boundaries
		c.viewSeq += n.View().Seq
	}
	c.net = b.c.net.Stats()
	return c
}

// runBank: 2 senders x 8 broadcasts outstanding over 100 accounts; 10%
// withdrawals (ordered, close an epoch), 90% deposits (fast path).
func runBank(cfg runConfig) (*result, error) {
	// A bank build takes milliseconds, so more builds steady its median.
	cfg.setups *= 9
	b := &bankRun{cfg: cfg, p: newProbes(cfg.seed)}
	c, setupS, err := timeSetups(cfg, func(i int) (*bankCluster, error) {
		c, err := buildBankCluster(cfg.seed+int64(i), b.deliver, b.p)
		if err != nil {
			return nil, err
		}
		b.c = c
		b.sent.Store(0)
		if err := b.broadcast(0, replication.ClassDeposit, "acct000"); err != nil {
			c.stop()
			return nil, fmt.Errorf("first broadcast: %w", err)
		}
		return c, nil
	}, (*bankCluster).stop)
	if err != nil {
		return nil, err
	}
	b.c, b.setupS = c, setupS

	clk := newClock(time.Now().Add(cfg.warm), cfg)
	rec := &recorder{clk: clk}
	var wg sync.WaitGroup
	for s := 0; s < bankSenders; s++ {
		for j := 0; j < bankDepth; j++ {
			wg.Add(1)
			go func(s, j int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(cfg.seed), uint64(s*bankDepth+j)))
				for {
					due := time.Now()
					if !due.Before(clk.end) {
						return
					}
					k, class := kDeposit, replication.ClassDeposit
					if rng.IntN(10) == 0 {
						k, class = kWithdraw, replication.ClassWithdraw
					}
					err := b.broadcast(s, class, fmt.Sprintf("acct%03d", rng.IntN(bankAccounts)))
					rec.record(k, due, time.Now(), err)
				}
			}(s, j)
		}
	}
	w := observe(clk, b.p.tr, b.counters)
	wg.Wait()

	res := &result{attempted: rec.att, failed: rec.failed}
	writes := []kind{kDeposit, kWithdraw}
	res.e2e = e2eMetrics(rec, b.setupS)
	res.info = clientMetrics(rec, w, writes, allParts())
	res.gate = b.quiesceAndCheck()
	var spans []span
	var frames [][]byte
	if cfg.trace {
		spans = b.p.tr.collected()
		frames = b.p.frames.sample()
	}
	b.c.stop()
	if cfg.trace {
		res.layer = layerMetrics(layerInput{writes: writes, rec: rec, w: w, nodes: len(b.c.nodes),
			spans: spans, codec: replayCodec(frames)})
		if err := writeSpans(cfg.spansPath(), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// quiesceAndCheck waits until every replica has applied or rejected every
// accepted broadcast, then requires equal balances everywhere.
func (b *bankRun) quiesceAndCheck() error {
	want := b.sent.Load()
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for _, bk := range b.c.banks {
			applied, rejected := bk.Applied()
			all = all && applied+rejected == want
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bank replicas never applied all %d broadcasts", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fps := make([]string, len(b.c.banks))
	for i, bk := range b.c.banks {
		fps[i] = bk.Fingerprint()
	}
	return checkFingerprints(fps)
}
