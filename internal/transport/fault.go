package transport

// Fault-injection middleware: FaultTransport wraps any Transport and applies
// programmable, per-destination *directed* impairments to outbound packets —
// drop probability, one-way blackhole, added delay/jitter, duplication and
// reordering. Because every link direction has exactly one sending side,
// outbound-only rules are sufficient to express any asymmetric fault: to
// impair b→a traffic, install the rule on b's wrapper.
//
// The wrapper composes with every transport in the tree: it sits between a
// memnet endpoint (or TCP transport) and a GroupMux, implementing the
// prefixSender fast path so an idle wrapper preserves the mux's single-copy
// send. When no rules are installed the entire cost is one atomic load per
// send; the pass-through claim is falsifiable via gcsbench partition's
// paired overhead rows.
//
// Injected faults stay inside the unreliable-transport contract with one
// documented exception: Duplicate intentionally violates the "never
// duplicate" clause — the layers above tolerate duplication regardless (see
// transport.go), and surviving it is exactly what the chaos suite wants to
// falsify.
//
// Scripted schedules (RunSchedule) drive time-varying faults — flapping
// partitions, heal-after-delay — from one goroutine, so chaos scenarios are
// expressed as data.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proc"
)

// FaultRule describes the impairments applied to packets sent toward one
// destination. The zero rule is a healthy link.
type FaultRule struct {
	// Drop is the independent probability in [0, 1] that a packet is
	// silently lost.
	Drop float64
	// Blackhole drops every packet. Because rules are directed, this is a
	// one-way blackhole: the reverse direction is governed by the peer's
	// own rules.
	Blackhole bool
	// Delay is added to every packet's delivery, on top of whatever the
	// underlying transport does.
	Delay time.Duration
	// Jitter adds a uniform random extra in [0, Jitter) per packet.
	Jitter time.Duration
	// Duplicate is the probability in [0, 1] that a packet is sent twice.
	Duplicate float64
	// Reorder is the probability in [0, 1] that a packet is held back one
	// extra delay quantum, letting packets sent after it overtake it.
	Reorder float64
}

// faulty reports whether the rule impairs anything at all.
func (r FaultRule) faulty() bool {
	return r.Drop > 0 || r.Blackhole || r.Delay > 0 || r.Jitter > 0 ||
		r.Duplicate > 0 || r.Reorder > 0
}

// FaultStats is a point-in-time snapshot of the wrapper's counters.
type FaultStats struct {
	Sent       uint64 // packets submitted while rules were active
	Dropped    uint64 // lost to Drop probability
	Blackholed uint64 // lost to a Blackhole rule
	Delayed    uint64 // deferred by Delay/Jitter/Reorder
	Duplicated uint64 // extra copies injected
	Reordered  uint64 // held back to overtake
}

// FaultTransport wraps a Transport with programmable directed fault
// injection. Safe for concurrent use; rules may be changed at runtime while
// traffic flows.
type FaultTransport struct {
	tr Transport
	ps prefixSender // underlying fast path, nil if tr doesn't implement it

	// active is the idle-path gate: false means no rule is installed and
	// Send degenerates to one atomic load plus delegation.
	active atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[proc.ID]FaultRule
	def   *FaultRule // applies to destinations without an explicit rule

	sent       atomic.Uint64
	dropped    atomic.Uint64
	blackholed atomic.Uint64
	delayed    atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
}

var (
	_ Transport        = (*FaultTransport)(nil)
	_ prefixSender     = (*FaultTransport)(nil)
	_ inboxDropCounter = (*FaultTransport)(nil)
)

// NewFaultTransport wraps tr. The seed makes the probabilistic faults (drop,
// duplicate, jitter, reorder) reproducible; the wrapper starts with no rules
// installed and is pure pass-through until SetRule/SetDefault.
func NewFaultTransport(tr Transport, seed int64) *FaultTransport {
	f := &FaultTransport{
		tr:    tr,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[proc.ID]FaultRule),
	}
	f.ps, _ = tr.(prefixSender)
	return f
}

// Underlying returns the wrapped transport.
func (f *FaultTransport) Underlying() Transport { return f.tr }

func (f *FaultTransport) Self() proc.ID          { return f.tr.Self() }
func (f *FaultTransport) Receive() <-chan Packet { return f.tr.Receive() }
func (f *FaultTransport) Close()                 { f.tr.Close() }

// countInboxDrop passes a GroupMux drop through to the wrapped transport.
func (f *FaultTransport) countInboxDrop() {
	if c, ok := f.tr.(inboxDropCounter); ok {
		c.countInboxDrop()
	}
}

// SetRule installs (or replaces) the rule for packets toward to.
func (f *FaultTransport) SetRule(to proc.ID, r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules[to] = r
	f.recomputeActiveLocked()
}

// ClearRule removes the per-destination rule for to (the default rule, if
// any, applies again).
func (f *FaultTransport) ClearRule(to proc.ID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.rules, to)
	f.recomputeActiveLocked()
}

// SetDefault installs the rule applied to every destination that has no
// explicit rule. An explicit zero FaultRule via SetRule exempts one
// destination from the default.
func (f *FaultTransport) SetDefault(r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rr := r
	f.def = &rr
	f.recomputeActiveLocked()
}

// ClearDefault removes the default rule.
func (f *FaultTransport) ClearDefault() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.def = nil
	f.recomputeActiveLocked()
}

// Clear removes every rule; the wrapper returns to pure pass-through.
func (f *FaultTransport) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = make(map[proc.ID]FaultRule)
	f.def = nil
	f.recomputeActiveLocked()
}

func (f *FaultTransport) recomputeActiveLocked() {
	active := f.def != nil && f.def.faulty()
	if !active {
		for _, r := range f.rules {
			if r.faulty() {
				active = true
				break
			}
		}
	}
	f.active.Store(active)
}

// Stats returns the fault counters. Counters only move while rules are
// active; idle pass-through traffic is not counted here (the underlying
// transport's stats see it as usual).
func (f *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Sent:       f.sent.Load(),
		Dropped:    f.dropped.Load(),
		Blackholed: f.blackholed.Load(),
		Delayed:    f.delayed.Load(),
		Duplicated: f.duplicated.Load(),
		Reordered:  f.reordered.Load(),
	}
}

// Send transmits data, subject to the rules toward to.
func (f *FaultTransport) Send(to proc.ID, data []byte) {
	if !f.active.Load() {
		f.tr.Send(to, data)
		return
	}
	f.inject(to, nil, data)
}

// sendPrefixed keeps the GroupMux single-copy fast path intact through the
// wrapper: idle, it delegates straight to the underlying prefixSender.
func (f *FaultTransport) sendPrefixed(to proc.ID, prefix, data []byte) {
	if !f.active.Load() {
		f.forward(to, prefix, data)
		return
	}
	f.inject(to, prefix, data)
}

// forward hands the (possibly prefixed) payload to the underlying transport
// with no impairment and as few copies as it allows.
func (f *FaultTransport) forward(to proc.ID, prefix, data []byte) {
	if len(prefix) == 0 {
		f.tr.Send(to, data)
		return
	}
	if f.ps != nil {
		f.ps.sendPrefixed(to, prefix, data)
		return
	}
	// Generic transport: build the tagged frame ourselves (transports copy
	// on Send, so the pooled copy is recycled immediately).
	frame := GetFrame(len(prefix) + len(data))
	copy(frame, prefix)
	copy(frame[len(prefix):], data)
	f.tr.Send(to, frame)
	PutFrame(frame)
}

// inject applies the rule toward to. All random sampling happens under f.mu
// in submission order, so a fixed seed yields a reproducible fault sequence
// for a deterministic sender.
func (f *FaultTransport) inject(to proc.ID, prefix, data []byte) {
	f.mu.Lock()
	rule, ok := f.rules[to]
	if !ok && f.def != nil {
		rule, ok = *f.def, true
	}
	if !ok || !rule.faulty() {
		f.mu.Unlock()
		f.forward(to, prefix, data)
		return
	}
	f.sent.Add(1)
	if rule.Blackhole {
		f.mu.Unlock()
		f.blackholed.Add(1)
		return
	}
	if rule.Drop > 0 && f.rng.Float64() < rule.Drop {
		f.mu.Unlock()
		f.dropped.Add(1)
		return
	}
	dup := rule.Duplicate > 0 && f.rng.Float64() < rule.Duplicate
	delay := rule.Delay
	if rule.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(rule.Jitter)))
	}
	if rule.Reorder > 0 && f.rng.Float64() < rule.Reorder {
		// Hold the packet back one extra quantum so packets sent after it
		// (which are not held) overtake it. Holding individual packets —
		// rather than swapping with a parked one — cannot starve anything.
		quantum := rule.Delay + rule.Jitter
		if quantum <= 0 {
			quantum = time.Millisecond
		}
		delay += quantum
		f.reordered.Add(1)
	}
	f.mu.Unlock()

	sends := 1
	if dup {
		sends = 2
		f.duplicated.Add(1)
	}
	if delay <= 0 {
		for i := 0; i < sends; i++ {
			f.forward(to, prefix, data)
		}
		return
	}
	f.delayed.Add(1)
	// A deferred send outlives the caller's buffers (Send's contract lets
	// the caller reuse them the moment it returns), so materialize one
	// plain heap copy here. Deliberately NOT a pooled frame: the copy
	// crosses into timer goroutines and the pool's linear-ownership
	// discipline (gcsvet framepool) does not extend there. The underlying
	// transport copies again on Send, as for any caller.
	buf := make([]byte, len(prefix)+len(data))
	copy(buf, prefix)
	copy(buf[len(prefix):], data)
	for i := 0; i < sends; i++ {
		time.AfterFunc(delay, func() { f.tr.Send(to, buf) })
	}
}

// FaultStep is one step of a scripted fault schedule: wait After (measured
// from the previous step firing), then apply the mutation.
type FaultStep struct {
	After time.Duration
	Apply func(*FaultTransport)
}

// RunSchedule plays the steps in order on a dedicated goroutine; with loop
// set it repeats the sequence until stopped — a flapping partition is a
// two-step loop of SetRule/Clear. The returned stop function halts the
// runner and waits for it to exit (idempotent); it does NOT clear installed
// rules — end the schedule with a clearing step, or call Clear after stop,
// to heal.
func (f *FaultTransport) RunSchedule(steps []FaultStep, loop bool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for {
			for _, st := range steps {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(st.After)
				select {
				case <-done:
					return
				case <-timer.C:
				}
				st.Apply(f)
			}
			if !loop {
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
