// Package lockmgr implements the abstract locks of transactional boosting:
// two-phase locks owned by transactions rather than goroutines, acquired with
// a timeout (timeout -> abort is how the paper's two-phase locking recovers
// from deadlock), and released by the runtime only when the owning
// transaction commits or finishes aborting.
//
// Three flavours are provided:
//
//   - OwnerLock: an exclusive abstract lock (one per boosted object for
//     coarse-grained boosting, as in the paper's red-black tree).
//   - RWOwnerLock: a readers/writer abstract lock (the paper's heap uses it
//     to run add() calls, which commute with each other, in shared mode and
//     removeMin() in exclusive mode).
//   - LockMap: a striped map from key to OwnerLock implementing the paper's
//     LockKey class — the lock-per-key discipline of the boosted skip list.
package lockmgr

import (
	"errors"
	"fmt"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// ErrTimeout is the cause used to abort a transaction whose timed lock
// acquisition expired.
var ErrTimeout = errors.New("lockmgr: abstract lock acquisition timed out")

// ErrWounded is the cause used to abort a transaction that an older
// transaction wounded while it was waiting for a lock.
var ErrWounded = errors.New("lockmgr: wounded by an older transaction")

func init() {
	stm.RegisterAbortKind(ErrTimeout, stm.KindLockTimeout)
	stm.RegisterAbortKind(ErrWounded, stm.KindWounded)
}

// abortAcquireFailure aborts tx after a failed timed acquisition, choosing
// the cause that explains the failure: the doom's recorded cause (a wound or
// a deadlock-victim selection — ErrWounded when the doomer left no cause),
// the caller's cancelled context, or a plain timeout. It never returns.
func abortAcquireFailure(tx *stm.Tx) {
	if tx.Doomed() {
		if cause := tx.Cause(); cause != nil {
			tx.Abort(cause)
		}
		tx.Abort(ErrWounded)
	}
	if err := tx.Context().Err(); err != nil {
		tx.Abort(err)
	}
	tx.System().CountLockTimeout()
	tx.Abort(ErrTimeout)
}

// OwnerLock is an exclusive two-phase lock owned by a transaction. The zero
// value is an unlocked lock ready for use. Acquisition is reentrant per
// transaction; release happens automatically when the owning transaction
// commits or aborts (the runtime calls Unlock via stm.Unlocker).
type OwnerLock struct {
	mu     chanMutex
	owner  *stm.Tx
	gen    chan struct{}    // closed on each release to wake all waiters
	ownGen chan struct{}    // closed on each ownership/registration change (waitOwnedBy)
	policy ContentionPolicy // nil: consult the waiter's System (see effectivePolicy)
	meter  *ContentionMeter // nil: no contention accounting (see meter.go)
}

// chanMutex is a tiny non-blocking-friendly mutex built on a 1-buffered
// channel. Using a channel (rather than sync.Mutex) keeps the critical
// sections explicit and lets the wait loop release/reacquire around selects.
type chanMutex struct{ ch chan struct{} }

func (m *chanMutex) lock() {
	if m.ch == nil {
		// Lazily initialized via sync-free fast path is racy; callers
		// must Init first. Locks created by constructors are initialized.
		panic("lockmgr: lock used before initialization; use NewOwnerLock or LockMap")
	}
	m.ch <- struct{}{}
}

func (m *chanMutex) unlock() { <-m.ch }

// NewOwnerLock returns a fresh exclusive abstract lock. Blocked acquisitions
// consult the contention policy of the waiting transaction's System
// (stm.Config.Contention; timed acquisition alone when unset).
func NewOwnerLock() *OwnerLock {
	return NewOwnerLockPolicy(nil)
}

// NewOwnerLockPolicy returns a fresh exclusive abstract lock with an explicit
// contention policy that overrides the system-wide choice (pass Timeout,
// WoundWait, or a NewDetect instance). A nil policy is NewOwnerLock.
func NewOwnerLockPolicy(p ContentionPolicy) *OwnerLock {
	l := new(OwnerLock)
	l.init(p)
	return l
}

// init readies a zero OwnerLock in place (lock tables embed locks in their
// nodes rather than allocating them separately).
func (l *OwnerLock) init(p ContentionPolicy) {
	l.mu.ch = make(chan struct{}, 1)
	l.policy = p
}

// SetMeter attaches a contention meter to the lock. Configuration-time only
// (before the lock is contended for); the slow path reads the field without
// synchronization, which is safe exactly because the field is set before the
// lock is shared. The uncontended acquisition path never touches the meter.
func (l *OwnerLock) SetMeter(m *ContentionMeter) { l.meter = m }

// TryAcquire attempts to acquire the lock for tx, waiting up to timeout.
// It returns true on success (including when tx already holds the lock).
// On success the lock is registered with tx for automatic two-phase release.
func (l *OwnerLock) TryAcquire(tx *stm.Tx, timeout time.Duration) bool {
	if !tx.RegisterLock(l) {
		// Already registered by this transaction. For a single-goroutine
		// transaction that settles it: the goroutine now here completed the
		// registering acquisition (or unwound it, removing the registration)
		// before issuing this call, so reentrancy is decided without touching
		// the lock. Inside stm.Parallel another branch may have registered it
		// and still be acquiring: check ownership and wait for it to land.
		if !tx.Shared() || l.HeldBy(tx) {
			return true
		}
		return l.waitOwnedBy(tx, timeout)
	}
	// Failpoint between registration and acquisition: a forced Timeout
	// exercises the registered-but-never-acquired cleanup; a forced Doom
	// simulates being wounded while about to wait.
	switch faultpoint.Hit(faultpoint.LockRegistered) {
	case faultpoint.Timeout:
		tx.UnregisterLock(l)
		l.wakeOwnershipWaiters()
		return false
	case faultpoint.Doom:
		tx.Doom()
	}
	if l.acquireSlow(tx, timeout) {
		return true
	}
	tx.UnregisterLock(l)
	// A sibling branch blocked in waitOwnedBy is waiting on the
	// registration this goroutine just removed; without a wake it would
	// sleep out its whole timeout.
	l.wakeOwnershipWaiters()
	return false
}

// wakeOwnershipWaiters wakes goroutines blocked in waitOwnedBy. Called after
// ownership or registration changes made outside l.mu's critical section.
func (l *OwnerLock) wakeOwnershipWaiters() {
	l.mu.lock()
	l.notifyOwnershipLocked()
	l.mu.unlock()
}

// notifyOwnershipLocked closes the current ownership-generation channel (if
// any waiter armed one). Callers hold l.mu.
func (l *OwnerLock) notifyOwnershipLocked() {
	if l.ownGen != nil {
		close(l.ownGen)
		l.ownGen = nil
	}
}

// waitOwnedBy waits until tx owns the lock (acquired by a sibling branch of
// a multi-threaded transaction), or the registration disappears (the
// sibling's acquisition failed), or tx is doomed, or the timeout expires.
// It sleeps on the lock's ownership-generation channel rather than spinning:
// every ownership or registration change closes the channel, so waiters wake
// exactly when there is something new to observe.
func (l *OwnerLock) waitOwnedBy(tx *stm.Tx, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	doomed := tx.DoomChan()
	for {
		l.mu.lock()
		if l.owner == tx {
			l.mu.unlock()
			return true
		}
		if l.ownGen == nil {
			l.ownGen = make(chan struct{})
		}
		wait := l.ownGen
		l.mu.unlock()
		// Check the registration only after capturing the wait channel:
		// a sibling that unregisters after this check closes the channel
		// we already hold, so the wakeup cannot be missed.
		if !tx.Holds(l) {
			return false // sibling acquisition failed and unregistered
		}
		select {
		case <-wait:
			// Ownership or registration changed; re-examine.
		case <-doomed:
			return false // wounded while waiting
		case <-tx.Done():
			return false // caller's context cancelled
		case <-timer.C:
			return false
		}
	}
}

func (l *OwnerLock) acquireSlow(tx *stm.Tx, timeout time.Duration) bool {
	// The timer, its channel, and the doom channel are armed once for the
	// whole wait (the budget spans all recontention rounds) and the timer
	// is stopped on every exit path, so a doomed or wounded wait no longer
	// leaks a live timer.
	var timer *time.Timer
	var expired <-chan time.Time
	var doomed <-chan struct{}
	var waitStart time.Time
	cp := effectivePolicy(l.policy, tx)
	conflicted := false
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if conflicted {
			cp.OnWaitEnd(tx)
		}
	}()
	for {
		if tx.Doomed() {
			return false // wounded while waiting: give way to our elder
		}
		l.mu.lock()
		if l.owner == nil {
			l.owner = tx
			l.notifyOwnershipLocked()
			l.mu.unlock()
			if timer != nil {
				// Granted after blocking: feed the adaptive-timeout
				// estimator with how long the wait actually took, and the
				// per-lock meter (which may evaluate a granularity
				// promotion on the fresh sample).
				waited := time.Since(waitStart)
				tx.System().ObserveWait(waited)
				if l.meter != nil {
					l.meter.observeWait(waited)
				}
			}
			return true
		}
		if l.meter != nil {
			// One conflict per blocking round, not per acquisition: under
			// coarse-lock barging a starved waiter recontends (and loses) once
			// per release inside a single acquisition, and each of those
			// wasted wakeups is exactly the evidence a granularity promotion
			// wants. Uncontended acquisitions never reach this branch.
			l.meter.observeConflict()
		}
		if cp != nil {
			// The blocking point: l.mu is held, so l.owner is the grant
			// holder at this instant (it cannot release in between).
			conflicted = true
			cp.OnConflict(tx, l.owner)
		}
		if l.gen == nil {
			l.gen = make(chan struct{})
		}
		wait := l.gen
		l.mu.unlock()

		if timer == nil {
			timer = time.NewTimer(timeout)
			expired = timer.C
			doomed = tx.DoomChan()
			waitStart = time.Now()
		}
		// Failpoint between DoomChan availability and the select: a Delay
		// here widens the doom/wakeup race window; Timeout forces the
		// expired path; Doom simulates a wound landing right now.
		switch faultpoint.Hit(faultpoint.LockWait) {
		case faultpoint.Timeout:
			return false
		case faultpoint.Doom:
			tx.Doom()
		}
		select {
		case <-wait:
			// A release happened; recontend.
		case <-doomed:
			return false // wounded while waiting
		case <-tx.Done():
			return false // caller's context cancelled
		case <-expired:
			return false
		}
	}
}

// Acquire acquires the lock for tx using the system's default lock timeout,
// aborting tx (which unwinds to stm.Atomic for rollback and retry) if the
// timeout expires or tx was wounded while waiting. This is the call boosted
// methods make on every operation.
func (l *OwnerLock) Acquire(tx *stm.Tx) {
	if !l.TryAcquire(tx, tx.System().LockTimeout()) {
		abortAcquireFailure(tx)
	}
}

// Unlock releases the lock if tx owns it. It is called by the stm runtime
// during commit/abort; user code should not call it directly (two-phase
// locking forbids early release).
func (l *OwnerLock) Unlock(tx *stm.Tx) {
	l.mu.lock()
	if l.owner == tx {
		l.owner = nil
		if l.gen != nil {
			close(l.gen)
			l.gen = nil
		}
		l.notifyOwnershipLocked()
	}
	l.mu.unlock()
}

// HeldBy reports whether tx currently owns the lock. For tests and
// introspection.
func (l *OwnerLock) HeldBy(tx *stm.Tx) bool {
	l.mu.lock()
	held := l.owner == tx
	l.mu.unlock()
	return held
}

// otherOwnerConflict reports whether a transaction other than tx owns the
// lock — the conflict probe of the striped range manager's owner scans —
// and, when one does and cp is non-nil, reports the conflict to the
// contention policy while l.mu still pins the owner (an owner cannot release
// without this mutex, so the pointer handed to OnConflict is live). It takes
// the lock's own mutex: together with the seq-cst rmark counter this is what
// makes the striped point fast path sound (see confirmKey) without the point
// path ever paying an atomic owner store.
func (l *OwnerLock) otherOwnerConflict(tx *stm.Tx, cp ContentionPolicy) bool {
	l.mu.lock()
	o := l.owner
	if o != nil && o != tx && cp != nil {
		cp.OnConflict(tx, o)
	}
	l.mu.unlock()
	return o != nil && o != tx
}

// Locked reports whether any transaction owns the lock.
func (l *OwnerLock) Locked() bool {
	l.mu.lock()
	locked := l.owner != nil
	l.mu.unlock()
	return locked
}

// String describes the lock state for debugging.
func (l *OwnerLock) String() string {
	l.mu.lock()
	defer l.mu.unlock()
	if l.owner == nil {
		return "OwnerLock(free)"
	}
	return fmt.Sprintf("OwnerLock(owner=tx%d)", l.owner.ID())
}

// compile-time interface check
var _ stm.Unlocker = (*OwnerLock)(nil)
