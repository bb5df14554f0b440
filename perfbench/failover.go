package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"repro/internal/proc"
	"repro/internal/service"
)

const (
	failoverRate = 1000 // ops/s, open loop
	crashHold    = time.Second
	catchupLimit = 10 * time.Second // a restarted replica still behind after this fails the gate
	cyclePeriod  = 3 * time.Second
)

// runFailover: an open loop of 1,000 ops/s over 2 sessions, half puts and
// half Linearizable gets, each op timed from when it was due. Each cycle
// crashes the current primary on memnet (its process state kept), holds it
// down 1s, restarts it and waits until it has caught up.
func runFailover(cfg runConfig) (*result, error) {
	const sessions = 2
	cycles := max(1, int(cfg.window/cyclePeriod))
	cfg.window = max(cfg.window, time.Duration(cycles)*cyclePeriod)
	s := newKV(100000, 1, 64)
	ccs := make([]service.ClientConfig, sessions)
	for i := range ccs {
		ccs[i] = service.ClientConfig{Addrs: coreIDStrings()}
	}
	r, err := startSvc(cfg, false, s, ccs)
	if err != nil {
		return nil, err
	}
	clk := newClock(time.Now().Add(cfg.warm), cfg)
	rec := &recorder{clk: clk, keepAll: true}
	var wg sync.WaitGroup
	lateCh := make(chan []float64, 1)
	go func() { lateCh <- r.openLoop(clk, rec, &wg) }()
	cyc := make(chan failoverStats, 1)
	go func() { cyc <- r.crashCycles(clk, cycles) }()
	w := observe(clk, r.c.p.tr, r.counters)
	late := <-lateCh
	wg.Wait()
	fs := <-cyc
	fs.unavail = unavailability(rec.all, fs.crashes)
	res, err := r.finish(rec, w, layerInput{late: late, failover: fs}, []kind{kPut})
	if err != nil {
		return nil, err
	}
	res.gate = errors.Join(fs.err, res.gate)
	return res, nil
}

// openLoop issues ops on a fixed schedule until the window ends and returns
// how late the generator ran (ms) for ops due inside the window. Puts write
// fresh keys in sequence, so no two puts to one key are ever in flight.
func (r *svcRun) openLoop(clk clock, rec *recorder, wg *sync.WaitGroup) []float64 {
	rng := rand.New(rand.NewPCG(uint64(r.cfg.seed), 0xf0))
	tr := r.c.p.tr
	t0 := time.Now()
	interval := time.Second / failoverRate
	var late []float64
	puts := 0
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if !due.Before(clk.end) {
			return late
		}
		sleepUntil(due)
		if clk.in(due) {
			late = append(late, ms(time.Since(due)))
		}
		cl := r.cls[i%len(r.cls)]
		k, key := kGet, rng.IntN(max(puts, 1))%r.kv.keys
		if rng.IntN(2) == 0 {
			k, key = kPut, puts%r.kv.keys
			puts++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if k == kPut {
				err = r.kv.put(cl, key, tr)
			} else {
				err = r.kv.getLinearizable(cl, key, tr)
			}
			rec.record(k, due, time.Now(), err)
		}()
	}
}

// crashCycles runs the crash/restart cycles, one per cyclePeriod of the
// window, and times the primary change and the catch-up of each.
func (r *svcRun) crashCycles(clk clock, cycles int) failoverStats {
	var fs failoverStats
	for i := 0; i < cycles; i++ {
		sleepUntil(clk.start.Add(time.Duration(i)*cyclePeriod + 300*time.Millisecond))
		victim := r.c.primary()
		if victim == nil {
			continue
		}
		var survivors []*member
		for _, m := range r.c.members {
			if m != victim {
				survivors = append(survivors, m)
			}
		}
		epoch := survivors[0].rep.Epoch()
		crashAt := time.Now()
		r.c.net.Crash(victim.id)
		fs.crashes = append(fs.crashes, crashAt)
		for time.Since(crashAt) < crashHold {
			if survivors[0].rep.Epoch() > epoch {
				fs.primaryChange = append(fs.primaryChange, ms(time.Since(crashAt)))
				break
			}
			time.Sleep(time.Millisecond)
		}
		sleepUntil(crashAt.Add(crashHold))
		var target uint64
		for _, m := range survivors {
			target = max(target, m.rep.CommitIndex())
		}
		restartAt := time.Now()
		r.c.net.Restart(victim.id)
		for victim.rep.CommitIndex() < target {
			if time.Since(restartAt) > catchupLimit {
				fs.err = fmt.Errorf("cycle %d: restarted %s stuck at commit index %d, survivors were at %d (%s)",
					i, victim.id, victim.rep.CommitIndex(), target, r.c.describe())
				return fs
			}
			time.Sleep(time.Millisecond)
		}
		fs.catchup = append(fs.catchup, ms(time.Since(restartAt)))
	}
	return fs
}

// describe summarises each replica's position, for gate messages.
func (c *svcCluster) describe() string {
	var b strings.Builder
	for i, m := range c.members {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: commit %d applied %d primary %q epoch %d", m.id, m.rep.CommitIndex(),
			m.store.Applied(), m.rep.Primary(), m.rep.Epoch())
	}
	return b.String()
}

// primary is the core member most replicas name primary.
func (c *svcCluster) primary() *member {
	votes := make(map[proc.ID]int)
	for _, m := range c.members {
		votes[m.rep.Primary()]++
	}
	for _, m := range c.members {
		if votes[m.id]*2 > len(c.members) {
			return m
		}
	}
	return nil
}

// unavailability is, per crash, the time from the crash to the completion
// of the first successful op that was due after it (ms).
func unavailability(ops []opRec, crashes []time.Time) []float64 {
	var out []float64
	for _, at := range crashes {
		var first time.Time
		for _, o := range ops {
			if o.ok && o.due.After(at) && (first.IsZero() || o.done.Before(first)) {
				first = o.done
			}
		}
		if !first.IsZero() {
			out = append(out, ms(first.Sub(at)))
		}
	}
	return out
}
