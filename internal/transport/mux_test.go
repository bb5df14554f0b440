package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/telemetry"
)

// muxPair builds a group mux with n groups over each of two memnet
// endpoints, a↔b.
func muxPair(t *testing.T, n int) (*Network, *GroupMux, *GroupMux) {
	t.Helper()
	net := NewNetwork(WithSeed(3))
	ma := NewGroupMux(net.Endpoint("a"), n)
	mb := NewGroupMux(net.Endpoint("b"), n)
	t.Cleanup(func() {
		ma.Close()
		mb.Close()
		net.Shutdown()
	})
	return net, ma, mb
}

func muxRecv(t *testing.T, tr Transport) Packet {
	t.Helper()
	select {
	case p, ok := <-tr.Receive():
		if !ok {
			t.Fatal("inbox closed")
		}
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for packet")
	}
	return Packet{}
}

// TestGroupMuxRouting: frames sent on group i arrive on the peer's group i
// only, with identity and payload intact.
func TestGroupMuxRouting(t *testing.T) {
	_, ma, mb := muxPair(t, 3)

	for i := 0; i < 3; i++ {
		ma.Group(i).Send("b", []byte(fmt.Sprintf("group-%d", i)))
	}
	for i := 0; i < 3; i++ {
		p := muxRecv(t, mb.Group(i))
		if p.From != "a" {
			t.Fatalf("group %d: from %q", i, p.From)
		}
		if got, want := string(p.Data), fmt.Sprintf("group-%d", i); got != want {
			t.Fatalf("group %d: payload %q, want %q", i, got, want)
		}
	}
	// Nothing bled into another group's inbox.
	for i := 0; i < 3; i++ {
		select {
		case p := <-mb.Group(i).Receive():
			t.Fatalf("group %d: unexpected extra packet %q", i, p.Data)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestGroupMuxSelf: every group reports the shared endpoint's identity.
func TestGroupMuxSelf(t *testing.T) {
	_, ma, _ := muxPair(t, 2)
	for i := 0; i < 2; i++ {
		if ma.Group(i).Self() != "a" {
			t.Fatalf("group %d self %q", i, ma.Group(i).Self())
		}
	}
}

// TestGroupMuxGroupCloseIsolation: closing one group (as its stack's
// shutdown does) must not disturb the other groups or the shared endpoint,
// and late frames for the closed group are dropped without panic.
func TestGroupMuxGroupCloseIsolation(t *testing.T) {
	_, ma, mb := muxPair(t, 2)

	mb.Group(0).Close()
	ma.Group(0).Send("b", []byte("late for closed group"))
	ma.Group(1).Send("b", []byte("still flowing"))

	p := muxRecv(t, mb.Group(1))
	if string(p.Data) != "still flowing" {
		t.Fatalf("group 1 payload %q", p.Data)
	}
	if _, ok := <-mb.Group(0).Receive(); ok {
		t.Fatal("closed group delivered a packet")
	}
}

// TestGroupMuxClose: closing the mux closes the physical endpoint and every
// group inbox.
func TestGroupMuxClose(t *testing.T) {
	net := NewNetwork(WithSeed(4))
	m := NewGroupMux(net.Endpoint("a"), 2)
	defer net.Shutdown()
	m.Close()
	m.Close() // idempotent
	for i := 0; i < 2; i++ {
		if _, ok := <-m.Group(i).Receive(); ok {
			t.Fatalf("group %d inbox still open after mux close", i)
		}
	}
}

// TestGroupMuxUnknownGroupDropped: a peer running more groups than we do
// (mismatched shard counts) must not crash or misroute — the frame is
// silently dropped, like any unreliable-transport loss.
func TestGroupMuxUnknownGroupDropped(t *testing.T) {
	net := NewNetwork(WithSeed(5))
	ma := NewGroupMux(net.Endpoint("a"), 4)
	mb := NewGroupMux(net.Endpoint("b"), 2)
	defer func() {
		ma.Close()
		mb.Close()
		net.Shutdown()
	}()

	ma.Group(3).Send("b", []byte("no such group here"))
	ma.Group(1).Send("b", []byte("routable"))
	if p := muxRecv(t, mb.Group(1)); string(p.Data) != "routable" {
		t.Fatalf("payload %q", p.Data)
	}
}

// TestGroupMuxOverTCP: S groups share ONE physical TCP connection set —
// the whole point of the mux — and still deliver with integrity.
func TestGroupMuxOverTCP(t *testing.T) {
	const groups = 4
	ta2, tb2 := tcpPair(t)
	ma := NewGroupMux(ta2, groups)
	mb := NewGroupMux(tb2, groups)
	defer func() {
		ma.Close()
		mb.Close()
	}()

	const per = 50
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			ma.Group(g).Send("b", []byte(fmt.Sprintf("g%d-msg%d", g, i)))
		}
	}
	// TCP is reliable and FIFO per connection, and all groups share it, so
	// every frame arrives, in per-group order.
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			p := muxRecv(t, mb.Group(g))
			if got, want := string(p.Data), fmt.Sprintf("g%d-msg%d", g, i); got != want {
				t.Fatalf("group %d: got %q, want %q", g, got, want)
			}
		}
	}
}

// waitDrops polls got until it reaches want or a deadline passes.
func waitDrops(t *testing.T, what string, want uint64, got func() uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for got() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := got(); n != want {
		t.Fatalf("%s: %d drops counted, want %d", what, n, want)
	}
}

// TestGroupMuxDropsCounted: frames the mux drops — unknown or corrupt tag,
// full group inbox, closed group — land in the physical transport's drop
// accounting instead of vanishing.
func TestGroupMuxDropsCounted(t *testing.T) {
	net, ma, mb := muxPair(t, 2)
	raw := net.Endpoint("c")
	dropped := func() uint64 { return net.Stats().Dropped }

	raw.Send("b", []byte{7, 'x'}) // group 7 of 2
	raw.Send("b", []byte{0xff})   // truncated uvarint tag
	waitDrops(t, "unknown/corrupt tag", 2, dropped)

	// Fill group 0's inbox, then overflow it by three.
	inbox := mb.groups[0].inbox
	for i := 0; i < defaultQueue; i++ {
		ma.Group(0).Send("b", []byte("fill"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(inbox) < defaultQueue && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(inbox) != defaultQueue || dropped() != 2 {
		t.Fatalf("fill: inbox %d/%d, %d drops", len(inbox), defaultQueue, dropped())
	}
	for i := 0; i < 3; i++ {
		ma.Group(0).Send("b", []byte("over"))
	}
	waitDrops(t, "inbox overflow", 5, dropped)

	mb.Group(1).Close()
	ma.Group(1).Send("b", []byte("late"))
	waitDrops(t, "closed group", 6, dropped)
}

// TestGroupMuxDropsExported: over TCP the mux's drops are counted in
// gcs_transport_inbox_drops_total.
func TestGroupMuxDropsExported(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ta.RegisterMetrics(reg.Scope())
	m := NewGroupMux(ta, 1)
	defer m.Close()
	tb, err := NewTCP("b", "127.0.0.1:0", map[proc.ID]string{"a": ta.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	tb.Send("a", []byte{3, 'x'})
	drops := reg.Scope().Counter("gcs_transport_inbox_drops_total", "")
	waitDrops(t, "gcs_transport_inbox_drops_total", 1, drops.Value)
}
