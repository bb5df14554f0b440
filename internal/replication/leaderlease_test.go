package replication

import (
	"errors"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLeaderLeaseFastPath: once a renewal has committed, the primary serves
// ReadBarrier calls from the lease fast path — correct indexes, zero extra
// barrier broadcasts — and every replica agrees on the holder.
func TestLeaderLeaseFastPath(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	for _, r := range reps {
		r.EnableLeaderLease(LeaderLeaseConfig{TTL: 2 * time.Second})
		defer r.DisableLeaderLease()
	}

	if _, err := reps[0].Request([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first lease grant", func() bool {
		return reps[0].leaseHeld()
	})
	// Every replica delivered the same ordered grant.
	for i, r := range reps {
		waitFor(t, 10*time.Second, "grant delivery", func() bool {
			return r.LeaderLeaseStats().Grants >= 1
		})
		r.leaseMu.Lock()
		holder := r.llHolder
		r.leaseMu.Unlock()
		if holder != reps[0].self {
			t.Fatalf("replica %d lease holder %q, want %q", i, holder, reps[0].self)
		}
	}

	before := reps[0].CommitIndex()
	bcastBefore := reps[0].ReadBarrierStats().Broadcasts
	const reads = 20
	for i := 0; i < reads; i++ {
		idx, err := reps[0].ReadBarrier(10*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx < before {
			t.Fatalf("lease read index %d < pre-read commit index %d", idx, before)
		}
	}
	st := reps[0].LeaderLeaseStats()
	if st.LeaseReads < reads {
		t.Fatalf("lease reads %d, want >= %d", st.LeaseReads, reads)
	}
	// The whole point: no per-read ordered broadcasts while the lease holds.
	if got := reps[0].ReadBarrierStats().Broadcasts; got != bcastBefore {
		t.Fatalf("lease-path reads cost %d barrier broadcasts", got-bcastBefore)
	}
	// Backups never serve the fast path.
	if _, ok := reps[1].leaseRead(); ok {
		t.Fatal("backup served a lease read")
	}
}

// TestLeaderLeaseFirstRenewalOnArming: the first renewal goes out when
// EnableLeaderLease arms the loop, not one Renew period later — with an
// hour-long period, a grant is delivered within a second.
func TestLeaderLeaseFirstRenewalOnArming(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	for _, r := range reps {
		r.EnableLeaderLease(LeaderLeaseConfig{TTL: 2 * time.Second, Renew: time.Hour})
		defer r.DisableLeaderLease()
	}
	waitFor(t, time.Second, "first lease grant", func() bool {
		return reps[0].leaseHeld()
	})
	for _, r := range reps {
		waitFor(t, time.Second, "grant delivery", func() bool {
			return r.LeaderLeaseStats().Grants >= 1
		})
	}
}

// TestLeaderLeaseHandoff: a delivered epoch change voids the lease
// everywhere, and the new primary serves linearizable reads through the
// ordered barrier until the old lease's guard window has fully passed —
// only then does its own lease arm the fast path.
func TestLeaderLeaseHandoff(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	const ttl = 500 * time.Millisecond
	for _, r := range reps {
		r.EnableLeaderLease(LeaderLeaseConfig{TTL: ttl})
		defer r.DisableLeaderLease()
	}
	if _, err := reps[0].Request([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first lease grant", func() bool {
		return reps[0].leaseHeld()
	})

	if err := reps[1].RequestPrimaryChange("s1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "epoch change at old primary", func() bool {
		_, err := reps[0].Request([]byte("post"))
		return errors.Is(err, ErrNotPrimary)
	})
	// The change's delivery voided the lease at the deposed primary: no
	// replica still believes in a holder for the old epoch.
	for i, r := range reps {
		waitFor(t, 10*time.Second, "lease voided", func() bool {
			return r.LeaderLeaseStats().Voided >= 1
		})
		if _, ok := r.leaseRead(); ok && i != 1 {
			t.Fatalf("replica %d served a lease read after demotion", i)
		}
	}
	// The new primary's first grants stay gated behind the handoff window
	// (guard = delivery + TTL + margin), then the fast path re-arms.
	waitFor(t, 10*time.Second, "new primary lease", func() bool {
		_, ok := reps[1].leaseRead()
		return ok
	})
	reps[1].leaseMu.Lock()
	handoff := reps[1].llHandoff
	reps[1].leaseMu.Unlock()
	if time.Now().Before(handoff) {
		t.Fatal("fast path re-armed before the handoff gate passed")
	}
	st := reps[1].LeaderLeaseStats()
	if st.BarrierFallbacks < 1 {
		t.Fatalf("no barrier fallbacks recorded across the handoff: %+v", st)
	}
}

// TestLeaderLeaseDegradedGate: a primary that knows ordered progress has
// stalled (watchdog degraded) refuses lease reads even inside its nominal
// window — defense in depth against serving reads while partitioned.
func TestLeaderLeaseDegradedGate(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	for _, r := range reps {
		r.EnableLeaderLease(LeaderLeaseConfig{TTL: 2 * time.Second})
		defer r.DisableLeaderLease()
	}
	waitFor(t, 10*time.Second, "first lease grant", func() bool {
		return reps[0].leaseHeld()
	})
	reps[0].degraded.Store(true)
	if _, ok := reps[0].leaseRead(); ok {
		t.Fatal("degraded primary served a lease read")
	}
	reps[0].degraded.Store(false)
	if _, ok := reps[0].leaseRead(); !ok {
		t.Fatal("healthy primary with a live lease fell back to the barrier")
	}
}

// TestStateAge: a fresh replica reports unknown age (never stamped); after a
// write's delivery every replica reports a small, known age, advanced again
// by lease renewals on an otherwise idle system.
func TestStateAge(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	if _, ok := reps[1].StateAge(); ok {
		t.Fatal("unstamped replica reported a known state age")
	}
	if _, err := reps[0].Request([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		waitFor(t, 10*time.Second, "stamped delivery", func() bool {
			_, ok := r.StateAge()
			return ok
		})
		if age, _ := r.StateAge(); age > time.Minute {
			t.Fatalf("replica %d state age %v right after a write", i, age)
		}
	}

	// Renewals are freshness heartbeats: with no further writes, the stamp
	// keeps advancing (age stays bounded near the renewal period).
	for _, r := range reps {
		r.EnableLeaderLease(LeaderLeaseConfig{TTL: 200 * time.Millisecond})
		defer r.DisableLeaderLease()
	}
	stamp := reps[1].stateStamp.Load()
	waitFor(t, 10*time.Second, "heartbeat stamp advance", func() bool {
		return reps[1].stateStamp.Load() > stamp
	})
}
