package rchannel

import (
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/transport"
)

// collector gathers deliveries for one protocol.
type collector struct {
	mu   sync.Mutex
	got  []string
	from []proc.ID
}

func (c *collector) handler(from proc.ID, body any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := body.(string); ok {
		c.got = append(c.got, s)
		c.from = append(c.from, from)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) last() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.got) == 0 {
		return ""
	}
	return c.got[len(c.got)-1]
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIncarnationRestart is the crash-recovery scenario the handshake
// exists for: peer b exchanges traffic with a, is destroyed (endpoint and
// all channel state), and comes back under the same ID with a higher
// incarnation and FRESH sequence numbers. Without the handshake, a would
// discard b#2's seq 1.. as duplicates of b#1's and the channel would be
// dead forever; with it, a resets its per-peer state on first contact and
// reliable FIFO delivery resumes in both directions.
func TestIncarnationRestart(t *testing.T) {
	network := transport.NewNetwork(transport.WithDelay(0, time.Millisecond), transport.WithSeed(3))
	defer network.Shutdown()

	colA := &collector{}
	a := New(network.Endpoint("a"), WithRTO(5*time.Millisecond))
	a.Handle("t", colA.handler)
	a.Start()
	defer a.Stop()

	colB1 := &collector{}
	b1 := New(network.Endpoint("b"), WithRTO(5*time.Millisecond), WithIncarnation(1))
	b1.Handle("t", colB1.handler)
	b1.Start()

	// Life 1: b introduces itself first (reliability is guaranteed once the
	// incarnation pair is established — frames sent before a side learns
	// the other's current incarnation may be lost, like any frame sent to a
	// process that has not announced itself), then traffic flows both ways.
	if err := b1.Send("a", "t", "b1-intro"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return colA.count() >= 1 }, "b#1's intro never delivered")
	for i := 0; i < 5; i++ {
		if err := b1.Send("a", "t", "b1-hello"); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", "t", "a-hello"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return colA.count() >= 6 && colB1.count() >= 5 },
		"life-1 traffic never delivered")

	// b dies: crash at the network, endpoint stopped, ALL state gone. a
	// keeps (re)transmitting into the void, accumulating backlog.
	network.Crash("b")
	b1.Stop()
	for i := 0; i < 3; i++ {
		_ = a.Send("b", "t", "into-the-void")
	}
	if a.PendingTo("b") == 0 {
		t.Fatal("no backlog accumulated toward the dead peer")
	}
	network.Restart("b")

	// Life 2: same ID, fresh state, higher incarnation.
	colB2 := &collector{}
	b2 := New(network.Endpoint("b"), WithRTO(5*time.Millisecond), WithIncarnation(2))
	b2.Handle("t", colB2.handler)
	b2.Start()
	defer b2.Stop()

	if err := b2.Send("a", "t", "b2-first"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return colA.count() >= 7 },
		"a never accepted the new incarnation's first message")
	if got := colA.last(); got != "b2-first" {
		t.Fatalf("a delivered %q from b#2, want b2-first", got)
	}

	// The dead-incarnation backlog was dropped on reset (the reliable
	// obligation is per incarnation pair)…
	waitFor(t, 5*time.Second, func() bool { return a.PendingTo("b") == 0 },
		"a still retransmits the dead incarnation's backlog")
	// …and fresh a→b#2 traffic flows with reset sequence numbers.
	if err := a.Send("b", "t", "a-to-b2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return colB2.last() == "a-to-b2" },
		"b#2 never received fresh traffic from a")
	// b#2 must not have been handed anything addressed to b#1.
	colB2.mu.Lock()
	for _, m := range colB2.got {
		if m == "into-the-void" || m == "a-hello" {
			colB2.mu.Unlock()
			t.Fatalf("b#2 received a previous life's message %q", m)
		}
	}
	colB2.mu.Unlock()

	// FIFO continuity within the new incarnation.
	for i := 0; i < 10; i++ {
		_ = a.Send("b", "t", "seq")
	}
	waitFor(t, 5*time.Second, func() bool { return colB2.count() >= 11 },
		"post-restart FIFO stream stalled")
}

// TestIncarnationMoved: the notification closes when a peer shows up at a
// higher incarnation (first contact with b#1, then b's restart as b#2), and
// ordinary traffic at an unchanged incarnation never closes it.
func TestIncarnationMoved(t *testing.T) {
	network := transport.NewNetwork(transport.WithDelay(0, time.Millisecond), transport.WithSeed(5))
	defer network.Shutdown()

	colA := &collector{}
	a := New(network.Endpoint("a"), WithRTO(5*time.Millisecond))
	a.Handle("t", colA.handler)
	a.Start()
	defer a.Stop()

	fired := func(ch <-chan struct{}, within time.Duration) bool {
		select {
		case <-ch:
			return true
		case <-time.After(within):
			return false
		}
	}
	// quiet exchanges traffic both ways at b's current incarnation and
	// checks that it leaves a's notification open.
	quiet := func(b *Endpoint, colB *collector, life string) {
		t.Helper()
		moved := a.IncarnationMoved()
		wantA, wantB := colA.count()+5, colB.count()+5
		for i := 0; i < 5; i++ {
			if err := b.Send("a", "t", "to-a"); err != nil {
				t.Fatal(err)
			}
			if err := a.Send("b", "t", "to-b"); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 5*time.Second, func() bool { return colA.count() >= wantA && colB.count() >= wantB },
			life+": traffic never delivered")
		if fired(moved, 20*time.Millisecond) {
			t.Fatalf("%s: notification fired for traffic at an unchanged incarnation", life)
		}
	}

	moved := a.IncarnationMoved()
	colB1 := &collector{}
	b1 := New(network.Endpoint("b"), WithRTO(5*time.Millisecond), WithIncarnation(1))
	b1.Handle("t", colB1.handler)
	b1.Start()
	if err := b1.Send("a", "t", "b1-intro"); err != nil {
		t.Fatal(err)
	}
	if !fired(moved, 5*time.Second) {
		t.Fatal("no notification on first contact with b#1")
	}
	if got := a.PeerIncarnation("b"); got != 1 {
		t.Fatalf("PeerIncarnation(b) = %d after b#1's intro, want 1", got)
	}
	waitFor(t, 5*time.Second, func() bool { return colA.count() >= 1 }, "b#1's intro never delivered")
	quiet(b1, colB1, "life 1")

	network.Crash("b")
	b1.Stop()
	network.Restart("b")
	moved = a.IncarnationMoved()
	colB2 := &collector{}
	b2 := New(network.Endpoint("b"), WithRTO(5*time.Millisecond), WithIncarnation(2))
	b2.Handle("t", colB2.handler)
	b2.Start()
	defer b2.Stop()
	if err := b2.Send("a", "t", "b2-intro"); err != nil {
		t.Fatal(err)
	}
	if !fired(moved, 5*time.Second) {
		t.Fatal("no notification when b restarted as b#2")
	}
	if got := a.PeerIncarnation("b"); got != 2 {
		t.Fatalf("PeerIncarnation(b) = %d after b#2's intro, want 2", got)
	}
	waitFor(t, 5*time.Second, func() bool { return colA.last() == "b2-intro" }, "b#2's intro never delivered")
	quiet(b2, colB2, "life 2")
}
