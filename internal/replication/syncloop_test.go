package replication

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/transport"
)

// TestFollowerWipeRejoinLoop hammers the wipe/rejoin cycle: a follower is
// destroyed and rebuilt from nothing under ascending incarnations while a
// writer keeps the group's commit index moving. Every incarnation must
// install and catch up — this is the fast repro harness for channel-reset
// bugs that only deterministic-chaos runs would otherwise catch.
func TestFollowerWipeRejoinLoop(t *testing.T) {
	network := transport.NewNetwork(transport.WithDelay(0, 2*time.Millisecond), transport.WithSeed(5))
	defer network.Shutdown()
	ids := proc.IDs("s1", "s2", "s3")

	var reps []*Passive
	var nodes []*core.Node
	for _, id := range ids {
		sm := newSnapKV()
		rep := NewPassive(sm, ids)
		rep.SetSnapshotter(sm.snapshotter())
		node, err := core.NewNode(network.Endpoint(id), core.Config{
			Self: id, Universe: ids, Relation: PassiveRelation(),
		}, rep.DeliverFunc())
		if err != nil {
			t.Fatal(err)
		}
		rep.Bind(node)
		ServeSync(node.Endpoint(), rep)
		reps = append(reps, rep)
		nodes = append(nodes, node)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	// Background writer at the primary.
	stop := make(chan struct{})
	defer close(stop)
	var writes atomic.Uint64
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := fmt.Sprintf("set w%d %d", i%64, i)
			if _, err := reps[0].RequestSession("w", uint64(i), uint64(i-1), []byte(op), 10*time.Second); err == nil {
				writes.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const cycles = 10
	for inc := uint64(1); inc <= cycles; inc++ {
		sm := newSnapKV()
		f := NewFollower(sm, "f1")
		f.SetSnapshotter(sm.snapshotter())
		ep := rchannel.New(network.Endpoint("f1"),
			rchannel.WithRTO(10*time.Millisecond),
			rchannel.WithIncarnation(inc))
		syncer := NewSyncer(f, ep, SyncerConfig{
			Donors:   ids,
			Interval: 2 * time.Millisecond,
			Timeout:  200 * time.Millisecond,
		})
		ep.Start()
		syncer.Start()

		select {
		case <-syncer.Installed():
		case <-time.After(30 * time.Second):
			t.Fatalf("incarnation %d never installed: follower index %d, primary index %d, stats %+v",
				inc, f.CommitIndex(), reps[0].CommitIndex(), syncer.Stats())
		}

		// Let it follow briefly, then wipe: crash + full teardown.
		time.Sleep(10 * time.Millisecond)
		network.Crash("f1")
		syncer.Stop()
		ep.Stop()
		network.Restart("f1")
	}
	if writes.Load() == 0 {
		t.Fatal("writer made no progress")
	}
}
