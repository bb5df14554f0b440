package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	gcs "repro"
	"repro/internal/core"
	"repro/internal/kvdemo"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The service cluster is the gcsnode deployment shape run in one process:
// three core replicas on memnet, each a kvdemo store behind passive
// replication with group commit, a file storage engine and a batching
// gateway; optionally the catch-up follower f0 with its own gateway.
const (
	failoverSuspicion = 500 * time.Millisecond
	watchdogStall     = 2 * time.Second
	leaderLeaseTTL    = 400 * time.Millisecond // the gcsnode maximum
	sessionLeaseTTL   = 2 * time.Second
	sessionIdleTTL    = time.Hour // gcsnode's -service-session-ttl default
	netDelayMin       = 50 * time.Microsecond
	netDelayMax       = 200 * time.Microsecond
)

var coreIDs = proc.IDs("s0", "s1", "s2")

// member is one core replica and everything it owns.
type member struct {
	id    proc.ID
	store *kvdemo.Store
	rep   *replication.Passive
	node  *core.Node
	eng   *storage.File
	gw    *service.Gateway
	dv    delivering
}

// follower is the catch-up read replica f0.
type follower struct {
	f     *gcs.Follower
	store *kvdemo.Store
	gw    *service.Gateway
}

type svcCluster struct {
	net     *transport.Network
	p       *probes
	dir     string
	addrs   map[proc.ID]string
	members []*member
	f0      *follower
}

func newNetwork(seed int64) *transport.Network {
	return transport.NewNetwork(transport.WithDelay(netDelayMin, netDelayMax), transport.WithSeed(seed))
}

// buildSvcCluster starts the three core replicas (and f0 when withFollower)
// in the phases gcsnode -data-dir uses: replay disk, start the stacks, align,
// then arm failover, watchdog, batching and the leases and open the gateways.
func buildSvcCluster(seed int64, dir string, withFollower bool, p *probes) (*svcCluster, error) {
	c := &svcCluster{net: newNetwork(seed), p: p, dir: dir, addrs: make(map[proc.ID]string)}
	for _, id := range coreIDs {
		c.addrs[id] = string(id)
	}
	var recs []*replication.Recovery
	for _, id := range coreIDs {
		m := &member{id: id, store: kvdemo.New()}
		sm := &tracedStore{Store: m.store, p: p, dv: &m.dv}
		m.rep = replication.NewPassive(sm, coreIDs)
		m.rep.SetSnapshotter(replication.Snapshotter{Snapshot: m.store.Snapshot, Restore: m.store.Restore})
		eng, err := storage.Open(filepath.Join(dir, string(id)), storage.Config{})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("open storage %s: %w", id, err)
		}
		m.eng = eng
		c.members = append(c.members, m)
		m.rep.SetStorage(replication.StorageConfig{Engine: &tracedEngine{Engine: eng, p: p, dv: &m.dv}})
		if _, err := m.rep.ReplayStorage(); err != nil {
			c.stop()
			return nil, fmt.Errorf("replay %s: %w", id, err)
		}
		rep := m.rep
		node, err := core.NewNode(&tracedTransport{Transport: c.net.Endpoint(id), p: p}, core.Config{
			Self:     id,
			Universe: coreIDs,
			Relation: replication.PassiveRelation(),
			Snapshot: rep.EncodeSnapshot,
			Restore:  func(b []byte) { _ = rep.InstallSnapshot(b) },
			// gcsnode runs the monitor with a 2s exclusion timeout, so a
			// crashed primary is suspected but not excluded. Channel and
			// detector timing keep the defaults suited to memnet.
			ExclusionTimeout: 2 * time.Second,
			StartMonitor:     true,
			Incarnation:      1,
		}, tracedDeliver(rep.DeliverFunc(), p, &m.dv))
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
		m.node = node
		recs = append(recs, replication.NewRecovery(node.Endpoint(), rep, coreIDs, replication.SyncConfig{Join: node.Join}))
		rep.Bind(node)
	}
	for _, m := range c.members {
		m.node.Start()
	}
	// Each member aligns concurrently, as separate gcsnode processes do.
	errc := make(chan error, len(recs))
	for i, rec := range recs {
		go func(i int, rec *replication.Recovery) {
			if err := rec.Run(30 * time.Second); err != nil {
				errc <- fmt.Errorf("align %s: %w", coreIDs[i], err)
				return
			}
			errc <- nil
		}(i, rec)
	}
	var alignErr error
	for range recs {
		alignErr = errors.Join(alignErr, <-errc)
	}
	if alignErr != nil {
		c.stop()
		return nil, alignErr
	}
	for _, m := range c.members {
		m.rep.StartFailover(failoverSuspicion)
		m.rep.StartWatchdog(replication.WatchdogConfig{StallTimeout: watchdogStall})
		m.rep.EnableBatching(replication.BatchConfig{})
		m.rep.EnableLeaderLease(replication.LeaderLeaseConfig{TTL: leaderLeaseTTL})
		l, err := c.net.ListenStream(m.id)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("listen %s: %w", m.id, err)
		}
		m.gw = service.NewGateway(service.GatewayConfig{
			Self:       m.id,
			Replica:    &tracedReplica{Replica: m.rep, p: p},
			Read:       (&tracedStore{Store: m.store, p: p, dv: &m.dv}).Read,
			Addrs:      c.addrs,
			Batching:   true,
			SessionTTL: sessionIdleTTL,
			LeaseTTL:   sessionLeaseTTL,
		})
		m.gw.Serve(&tracedListener{StreamListener: l, p: p})
	}
	if withFollower {
		if err := c.addFollower(); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// addFollower attaches f0 (gcsnode -join) and waits until it has installed.
func (c *svcCluster) addFollower() error {
	const id = proc.ID("f0")
	store := kvdemo.New()
	var dv delivering
	f, err := gcs.NewFollowerNode(&tracedTransport{Transport: c.net.Endpoint(id), p: c.p},
		&tracedStore{Store: store, p: c.p, dv: &dv}, gcs.FollowerConfig{
			Self:         id,
			Donors:       coreIDs,
			Incarnation:  1,
			Snapshot:     store.Snapshot,
			Restore:      store.Restore,
			PullInterval: 20 * time.Millisecond,
			PullTimeout:  2 * time.Second,
		})
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	c.f0 = &follower{f: f, store: store}
	select {
	case <-f.Installed():
	case <-time.After(30 * time.Second):
		return errors.New("follower f0 never installed")
	}
	addrs := make(map[proc.ID]string, len(c.addrs)+1)
	for k, v := range c.addrs {
		addrs[k] = v
	}
	addrs[id] = string(id)
	l, err := c.net.ListenStream(id)
	if err != nil {
		return fmt.Errorf("listen f0: %w", err)
	}
	c.f0.gw = service.NewGateway(service.GatewayConfig{
		Self:       id,
		Replica:    &tracedReplica{Replica: f.Replica, p: c.p},
		Read:       (&tracedStore{Store: store, p: c.p, dv: &dv}).Read,
		Addrs:      addrs,
		SessionTTL: sessionIdleTTL,
		LeaseTTL:   sessionLeaseTTL,
	})
	c.f0.gw.Serve(&tracedListener{StreamListener: l, p: c.p})
	return nil
}

// dial returns a client dialer over memnet streams.
func (c *svcCluster) dial() service.Dialer {
	return tracedDialer(func(addr string) (transport.StreamConn, error) {
		return c.net.DialStream(proc.ID(addr))
	}, c.p)
}

// leaseHeld waits until some replica reports a delivered leader-lease grant.
func (c *svcCluster) leaseHeld(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range c.members {
			if m.rep.LeaderLeaseStats().Grants > 0 {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("no leader lease granted")
}

// stores lists every replica's kvdemo store, f0's last.
func (c *svcCluster) stores() (names []string, stores []*kvdemo.Store) {
	for _, m := range c.members {
		names = append(names, string(m.id))
		stores = append(stores, m.store)
	}
	if c.f0 != nil {
		names = append(names, "f0")
		stores = append(stores, c.f0.store)
	}
	return names, stores
}

// stop tears the cluster down and removes its storage.
func (c *svcCluster) stop() {
	if c.f0 != nil {
		if c.f0.gw != nil {
			c.f0.gw.Close()
		}
		_ = c.f0.f.Stop()
	}
	for _, m := range c.members {
		if m.gw != nil {
			m.gw.Close()
		}
	}
	for _, m := range c.members {
		if m.node == nil {
			continue
		}
		m.rep.StopBatching()
		m.rep.DisableLeaderLease()
		m.rep.StopWatchdog()
		m.rep.StopFailover()
		m.node.Stop()
	}
	c.net.Shutdown()
	for _, m := range c.members {
		if m.eng != nil {
			_ = m.eng.Close()
		}
	}
	_ = os.RemoveAll(c.dir)
}

// bankCluster is the Section 4.2 bank on the raw toolkit API: three core
// nodes with the bank conflict relation and default timing.
type bankCluster struct {
	net   *transport.Network
	nodes []*core.Node
	banks []*replication.Bank
}

func buildBankCluster(seed int64, deliver func(i int, fn core.DeliverFunc) core.DeliverFunc, p *probes) (*bankCluster, error) {
	c := &bankCluster{net: newNetwork(seed)}
	for i, id := range coreIDs {
		b := replication.NewBank()
		node, err := core.NewNode(&tracedTransport{Transport: c.net.Endpoint(id), p: p}, core.Config{
			Self:     id,
			Universe: coreIDs,
			Relation: replication.BankRelation(),
		}, deliver(i, b.DeliverFunc()))
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("bank node %s: %w", id, err)
		}
		b.Bind(node)
		c.nodes = append(c.nodes, node)
		c.banks = append(c.banks, b)
	}
	for _, n := range c.nodes {
		n.Start()
	}
	return c, nil
}

func (c *bankCluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Shutdown()
}
