package gcs_test

// Public-API crash-recovery tests: the follower/join assembly exposed as
// gcs.NewFollowerNode + gcs.ServeReplicaSync — the exact wiring `gcsnode
// -join` runs — over the simulated network. A follower with empty state
// joins a running group, installs the replica snapshot, catches up through
// the command log, and serves reads at backup parity through its own
// gateway.

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	gcs "repro"
	"repro/internal/kvdemo"
)

// startReplicaGroup starts an in-memory replicated KV group over network:
// one passive replica per member, each serving sync. The membership join's
// Snapshot/Restore hooks are wired too — the toolkit-level state transfer —
// so a test can tell that followers never go through it.
func startReplicaGroup(t *testing.T, network *gcs.Network, members []gcs.ID, incarnation uint64) ([]*kvdemo.Store, []*gcs.PassiveReplica, []*gcs.Node) {
	t.Helper()
	stores := make([]*kvdemo.Store, len(members))
	reps := make([]*gcs.PassiveReplica, len(members))
	nodes := make([]*gcs.Node, len(members))
	for i, id := range members {
		stores[i] = kvdemo.New()
		reps[i] = gcs.NewPassiveReplica(stores[i], members)
		reps[i].SetSnapshotter(gcs.ReplicaSnapshotter{
			Snapshot: stores[i].Snapshot, Restore: stores[i].Restore,
		})
		rep := reps[i]
		node, err := gcs.NewNode(network.Endpoint(id), gcs.Config{
			Self: id, Universe: members, Relation: gcs.PassiveRelation(),
			Incarnation: incarnation,
			Snapshot:    rep.EncodeSnapshot,
			Restore:     func(b []byte) { _ = rep.InstallSnapshot(b) },
		}, rep.DeliverFunc())
		if err != nil {
			t.Fatal(err)
		}
		gcs.ServeReplicaSync(node, rep)
		rep.Bind(node)
		node.Start()
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	// Frames sent before the channel handshake completes may be lost, so a
	// restarted group serves only once every member knows every peer's
	// incarnation (gcsnode -data-dir waits out its recovery step).
	deadline := time.Now().Add(10 * time.Second)
	for i, nd := range nodes {
		for _, peer := range members {
			for peer != members[i] && nd.Endpoint().PeerIncarnation(peer) != incarnation {
				if time.Now().After(deadline) {
					t.Fatalf("%s never learned %s's incarnation %d", members[i], peer, incarnation)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return stores, reps, nodes
}

func TestFollowerNodePublicAPI(t *testing.T) {
	members := []gcs.ID{"s1", "s2", "s3"}
	network := gcs.NewNetwork(gcs.WithDelay(0, 2*time.Millisecond), gcs.WithSeed(19))
	defer network.Shutdown()
	addrs := map[gcs.ID]string{"s1": "s1", "s2": "s2", "s3": "s3", "f1": "f1"}
	stores, reps, _ := startReplicaGroup(t, network, members, 0)

	// A gateway at the primary, and some committed state.
	l, err := network.ListenStream("s1")
	if err != nil {
		t.Fatal(err)
	}
	gw := gcs.Serve(gcs.ServiceGatewayConfig{
		Self: "s1", Replica: reps[0], Read: stores[0].Read, Addrs: addrs,
	}, l)
	defer gw.Close()
	client, err := gcs.Dial(gcs.ServiceClientConfig{
		Addrs: []string{"s1"},
		Dial: func(addr string) (gcs.StreamConn, error) {
			return network.DialStream(gcs.ID(addr))
		},
		RetryBackoff: 2 * time.Millisecond,
		OpTimeout:    20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, op := range []string{"put a 1", "put b 2", "put c 3"} {
		if res, err := client.Call([]byte(op)); err != nil || string(res) != "ok" {
			t.Fatalf("%s: %q %v", op, res, err)
		}
	}

	// The follower joins mid-life from nothing — the gcsnode -join wiring.
	fstore := kvdemo.New()
	follower, err := gcs.NewFollowerNode(network.Endpoint("f1"), fstore, gcs.FollowerConfig{
		Self:         "f1",
		Donors:       members,
		Incarnation:  1,
		Snapshot:     fstore.Snapshot,
		Restore:      fstore.Restore,
		PullInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	select {
	case <-follower.Installed():
	case <-time.After(20 * time.Second):
		t.Fatal("follower never installed")
	}

	// Its gateway serves reads at backup parity: monotonic locally and
	// linearizable via the read-index barrier; writes redirect to the
	// primary and stay exactly-once.
	fl, err := network.ListenStream("f1")
	if err != nil {
		t.Fatal(err)
	}
	fgw := gcs.Serve(gcs.ServiceGatewayConfig{
		Self: "f1", Replica: follower.Replica, Read: fstore.Read, Addrs: addrs,
	}, fl)
	defer fgw.Close()
	pinned, err := gcs.Dial(gcs.ServiceClientConfig{
		Addrs: []string{"f1"},
		Dial: func(addr string) (gcs.StreamConn, error) {
			return network.DialStream(gcs.ID(addr))
		},
		RetryBackoff: 2 * time.Millisecond,
		OpTimeout:    20 * time.Second,
		Sticky:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	if got, err := pinned.ReadAt([]byte("get b"), gcs.ReadLinearizable); err != nil || string(got) != "2" {
		t.Fatalf("linearizable read at follower: %q %v", got, err)
	}
	if got, err := pinned.Read([]byte("get c")); err != nil || string(got) != "3" {
		t.Fatalf("monotonic read at follower: %q %v", got, err)
	}
	if _, err := pinned.Call([]byte("put d 4")); err != nil {
		t.Fatalf("write through follower gateway (redirect): %v", err)
	}
	// The write landed exactly once and reaches the follower's state.
	deadline := time.Now().Add(10 * time.Second)
	for fstore.Get("d") != "4" {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up to the redirected write (d=%q)", fstore.Get("d"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got, err := pinned.ReadAt([]byte("get d"), gcs.ReadLinearizable); err != nil || string(got) != "4" {
		t.Fatalf("linearizable read of redirected write: %q %v", got, err)
	}
}

// TestFollowerStaysOutOfView: a follower catches up through the sync pull
// alone. It never enters the cores' membership view (a follower in the view
// would count toward gcsnode's quorum health check and could mask a lost
// core quorum), and the application state is restored exactly once.
func TestFollowerStaysOutOfView(t *testing.T) {
	members := []gcs.ID{"s1", "s2", "s3"}
	network := gcs.NewNetwork(gcs.WithDelay(0, 2*time.Millisecond), gcs.WithSeed(23))
	defer network.Shutdown()
	_, reps, nodes := startReplicaGroup(t, network, members, 0)
	for i := 0; i < 20; i++ {
		op := fmt.Sprintf("put k%d %d", i, i)
		if _, err := reps[0].RequestSession("w", uint64(i+1), uint64(i), []byte(op), 10*time.Second); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	before := make([]gcs.View, len(nodes))
	for i, nd := range nodes {
		before[i] = nd.View()
	}

	fstore := kvdemo.New()
	var restores atomic.Int32
	follower, err := gcs.NewFollowerNode(network.Endpoint("f1"), fstore, gcs.FollowerConfig{
		Self:        "f1",
		Donors:      members,
		Incarnation: 1,
		Snapshot:    fstore.Snapshot,
		Restore: func(b []byte) {
			restores.Add(1)
			fstore.Restore(b)
		},
		PullInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	select {
	case <-follower.Installed():
	case <-time.After(20 * time.Second):
		t.Fatal("follower never installed")
	}
	// Give a join, had one been requested, time to be ordered and shipped.
	time.Sleep(300 * time.Millisecond)

	if got := fstore.Get("k19"); got != "19" {
		t.Fatalf("follower state: k19=%q", got)
	}
	for i, nd := range nodes {
		if v := nd.View(); !reflect.DeepEqual(v, before[i]) {
			t.Errorf("%s view changed by the follower: %v -> %v", members[i], before[i], v)
		}
	}
	if n := restores.Load(); n != 1 {
		t.Errorf("application Restore ran %d times, want 1", n)
	}
}

// TestFollowerFirstPullOnStart: the follower pulls as soon as it starts,
// not one PullInterval later, and a first pull lost to the donors'
// incarnation handshake is re-sent when the handshake completes — with an
// hour-long interval it installs within a second, whether the cores run at
// incarnation 0 or, as gcsnode -data-dir runs them, at 1.
func TestFollowerFirstPullOnStart(t *testing.T) {
	for _, inc := range []uint64{0, 1} {
		t.Run(fmt.Sprintf("incarnation%d", inc), func(t *testing.T) {
			members := []gcs.ID{"s1", "s2", "s3"}
			network := gcs.NewNetwork(gcs.WithDelay(0, 2*time.Millisecond), gcs.WithSeed(29))
			defer network.Shutdown()
			_, reps, _ := startReplicaGroup(t, network, members, inc)
			if _, err := reps[0].RequestSession("w", 1, 0, []byte("put a 1"), 10*time.Second); err != nil {
				t.Fatal(err)
			}

			fstore := kvdemo.New()
			start := time.Now()
			follower, err := gcs.NewFollowerNode(network.Endpoint("f1"), fstore, gcs.FollowerConfig{
				Self:         "f1",
				Donors:       members,
				Incarnation:  1,
				Snapshot:     fstore.Snapshot,
				Restore:      fstore.Restore,
				PullInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Stop()
			select {
			case <-follower.Installed():
			case <-time.After(time.Second):
				t.Fatal("follower with an hour-long pull interval not installed within 1s")
			}
			t.Logf("installed in %v", time.Since(start))
			if got := fstore.Get("a"); got != "1" {
				t.Fatalf("follower state: a=%q", got)
			}
		})
	}
}
