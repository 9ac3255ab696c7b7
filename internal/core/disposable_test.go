package core

import (
	"errors"
	"sync"
	"testing"

	"tboost/internal/stm"
)

// --- UniqueID ---

func TestUniqueIDDistinctAcrossTransactions(t *testing.T) {
	u := NewUniqueID()
	sys := newSys()
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		var id int64
		stm.MustAtomicOn(sys, func(tx *stm.Tx) { id = u.AssignID(tx) })
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestUniqueIDReleasedAfterAbort(t *testing.T) {
	u := NewUniqueID()
	sys := newSys()
	boom := errors.New("boom")
	_ = sys.Atomic(func(tx *stm.Tx) error {
		u.AssignID(tx)
		return boom
	})
	if u.Released() != 1 {
		t.Fatalf("Released = %d, want 1 (post-abort disposable ran)", u.Released())
	}
	// The paper's §5.2.3 history: the released ID is NOT reissued; the next
	// assignment is a fresh ID.
	var next int64
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { next = u.AssignID(tx) })
	if next != 2 {
		t.Fatalf("next id = %d, want 2 (abandoned release)", next)
	}
}

func TestUniqueIDNoReleaseOnCommit(t *testing.T) {
	u := NewUniqueID()
	sys := newSys()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { u.AssignID(tx) })
	if u.Released() != 0 {
		t.Fatalf("Released = %d after commit, want 0", u.Released())
	}
}

func TestUniqueIDConcurrentNoConflicts(t *testing.T) {
	// assignID commutes with assignID: no abstract lock, so concurrent
	// transactions never abort over it.
	u := NewUniqueID()
	sys := newSys()
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				stm.MustAtomicOn(sys, func(tx *stm.Tx) {
					id := u.AssignID(tx)
					mu.Lock()
					if seen[id] {
						t.Errorf("duplicate id %d", id)
					}
					seen[id] = true
					mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	if st := sys.Stats(); st.Aborts != 0 {
		t.Fatalf("aborts = %d; assignID must never conflict", st.Aborts)
	}
}

// --- RefCount ---

func TestRefCountIncImmediateDecDeferred(t *testing.T) {
	r := NewRefCount(1, nil)
	sys := newSys()
	during := make(chan int64, 2)
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		r.Inc(tx)
		during <- r.Value() // 2: inc is immediate
		r.Dec(tx)
		during <- r.Value() // still 2: dec is deferred
	})
	if v := <-during; v != 2 {
		t.Fatalf("during inc = %d, want 2", v)
	}
	if v := <-during; v != 2 {
		t.Fatalf("during dec = %d, want 2 (dec deferred)", v)
	}
	if r.Value() != 1 {
		t.Fatalf("after commit = %d, want 1", r.Value())
	}
}

func TestRefCountAbortUndoesIncDropsDec(t *testing.T) {
	r := NewRefCount(5, nil)
	sys := newSys()
	boom := errors.New("boom")
	_ = sys.Atomic(func(tx *stm.Tx) error {
		r.Inc(tx)
		r.Dec(tx)
		r.Dec(tx)
		return boom
	})
	if r.Value() != 5 {
		t.Fatalf("after abort = %d, want 5", r.Value())
	}
}

func TestRefCountOnZeroFiresOnce(t *testing.T) {
	fired := 0
	r := NewRefCount(2, func() { fired++ })
	sys := newSys()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { r.Dec(tx) })
	if fired != 0 {
		t.Fatal("onZero fired early")
	}
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { r.Dec(tx) })
	if fired != 1 {
		t.Fatalf("onZero fired %d times, want 1", fired)
	}
	// Going back above zero and down again must not re-fire (object freed).
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { r.Inc(tx) })
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { r.Dec(tx) })
	if fired != 1 {
		t.Fatalf("onZero re-fired: %d", fired)
	}
}

func TestRefCountAbortedIncCannotFree(t *testing.T) {
	// An Inc that aborts is undone by its inverse — but the undo of an
	// aborted Inc must not be mistaken for the owner's final Dec.
	fired := 0
	r := NewRefCount(1, func() { fired++ })
	sys := newSys()
	boom := errors.New("boom")
	_ = sys.Atomic(func(tx *stm.Tx) error {
		r.Inc(tx)
		return boom
	})
	if fired != 0 {
		t.Fatal("aborted Inc's undo freed a live object")
	}
	if r.Value() != 1 {
		t.Fatalf("Value = %d", r.Value())
	}
}

// --- Pool ---

func TestPoolAllocFreeRoundTrip(t *testing.T) {
	calls := 0
	p := NewPool(func() *int { calls++; v := calls; return &v })
	sys := newSys()
	var got *int
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { got = p.Alloc(tx) })
	if got == nil || *got != 1 {
		t.Fatalf("Alloc = %v", got)
	}
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { p.Free(tx, got) })
	if p.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d", p.FreeLen())
	}
	// Next alloc reuses the freed object.
	var again *int
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { again = p.Alloc(tx) })
	if again != got {
		t.Fatal("freed object not recycled")
	}
}

func TestPoolAbortedAllocReturnsObject(t *testing.T) {
	p := NewPool(func() int { return 7 })
	sys := newSys()
	boom := errors.New("boom")
	_ = sys.Atomic(func(tx *stm.Tx) error {
		p.Alloc(tx)
		return boom
	})
	if p.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d after aborted alloc, want 1", p.FreeLen())
	}
	if a, _ := p.Stats(); a != 0 {
		t.Fatalf("committed allocs = %d, want 0", a)
	}
}

func TestPoolAbortedFreeDoesNotRecycle(t *testing.T) {
	p := NewPool(func() int { return 7 })
	sys := newSys()
	var v int
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { v = p.Alloc(tx) })
	boom := errors.New("boom")
	_ = sys.Atomic(func(tx *stm.Tx) error {
		p.Free(tx, v)
		return boom
	})
	if p.FreeLen() != 0 {
		t.Fatal("aborted Free recycled the object")
	}
}

func TestPoolConcurrentNoDoubleHandout(t *testing.T) {
	next := 0
	var mkMu sync.Mutex
	p := NewPool(func() int {
		mkMu.Lock()
		defer mkMu.Unlock()
		next++
		return next
	})
	sys := newSys()
	var mu sync.Mutex
	inUse := map[int]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var v int
				stm.MustAtomicOn(sys, func(tx *stm.Tx) { v = p.Alloc(tx) })
				mu.Lock()
				if inUse[v] {
					t.Errorf("object %d handed out twice", v)
					mu.Unlock()
					return
				}
				inUse[v] = true
				mu.Unlock()

				// Clear the mark before freeing: Free's commit handler puts
				// v back before MustAtomicOn returns, so another goroutine
				// may legitimately Alloc it before this one runs again.
				mu.Lock()
				delete(inUse, v)
				mu.Unlock()
				stm.MustAtomicOn(sys, func(tx *stm.Tx) { p.Free(tx, v) })
			}
		}()
	}
	wg.Wait()
	allocs, frees := p.Stats()
	if allocs != frees {
		t.Fatalf("allocs %d != frees %d", allocs, frees)
	}
}
