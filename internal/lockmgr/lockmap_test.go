package lockmgr

import (
	"sync"
	"testing"
	"time"

	"tboost/internal/stm"
)

// LockMap must keep putIfAbsent semantics under racing installs: every
// goroutine asking for a key gets the same lock instance, with reads never
// blocking on the stripe mutex.

func TestLockMapConcurrentInstallSameLock(t *testing.T) {
	m := NewLockMapStripes[int64](4) // few stripes: force install races
	const gs, keys = 8, 256
	got := make([][]*OwnerLock, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			locks := make([]*OwnerLock, keys)
			for k := int64(0); k < keys; k++ {
				locks[k] = m.Get(k)
			}
			got[g] = locks
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for g := 1; g < gs; g++ {
			if got[g][k] != got[0][k] {
				t.Fatalf("key %d: goroutine %d got a different lock", k, g)
			}
		}
	}
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
}

func TestLockMapGetStableAcrossLaterInstalls(t *testing.T) {
	m := NewLockMapStripes[int64](1) // one stripe: the installs double its table
	first := m.Get(1)
	for k := int64(2); k < 100; k++ {
		m.Get(k)
	}
	if m.Get(1) != first {
		t.Fatal("install of other keys replaced an existing lock")
	}
}

// waitOwnedBy (the sibling-branch ownership wait) must wake on the ownership
// change itself rather than burning a poll loop: with a foreign holder
// pinning the lock, one Parallel branch queues in acquireSlow and the other
// in waitOwnedBy; when the foreign transaction releases, both must finish
// promptly — far inside the 2s lock timeout.
func TestWaitOwnedByWakesOnSiblingAcquire(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 2 * time.Second})
	l := NewOwnerLock()
	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		stm.MustAtomicOn(sys, func(ftx *stm.Tx) {
			l.Acquire(ftx)
			close(held)
			<-release
		})
	}()
	<-held
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	start := time.Now()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		branch := func(tx *stm.Tx) error {
			if !l.TryAcquire(tx, time.Second) {
				t.Error("branch failed to acquire")
			}
			return nil
		}
		if err := tx.Parallel(branch, branch); err != nil {
			t.Errorf("Parallel: %v", err)
		}
	})
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("acquisition took %v; ownership waiter is not waking", d)
	}
	<-done
	if l.Locked() {
		t.Fatal("lock not released at commit")
	}
}
