package lockmgr

import (
	"cmp"
	"hash/maphash"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// DefaultRangeStripes is the stripe count used by NewStripedRangeLock.
const DefaultRangeStripes = 32

// legacyRangeLocks routes boost.NewRanged back onto the single-mutex
// RangeLock so the benchmark harness can measure the pre-PR manager against
// the striped one in a single run (the rangemix experiment). It selects a
// construction-time implementation and is not meant to be flipped while
// transactions are running.
var legacyRangeLocks atomic.Bool

// SetLegacyRangeLocks toggles the benchmark-only single-mutex interval lock
// manager for subsequently constructed ranged objects.
func SetLegacyRangeLocks(on bool) { legacyRangeLocks.Store(on) }

// LegacyRangeLocks reports whether the legacy single-mutex manager is
// selected.
func LegacyRangeLocks() bool { return legacyRangeLocks.Load() }

// rangeTimerArms counts every time.Timer armed by an interval-lock wait loop
// (striped or legacy). The timer-hygiene regression test asserts one arm per
// blocked acquisition no matter how many wakeup rounds the wait takes.
var rangeTimerArms atomic.Uint64

// StripedRangeLock is the stripe-partitioned interval lock manager: the
// ordered key space is cut into blocks by a Partition and blocks are dealt
// cyclically across S power-of-two stripes. A point demand [k, k] touches
// exactly one stripe — a lock-free probe of the stripe's key→lock
// table (installed in place on first touch, like LockMap) followed by
// an OwnerLock acquisition — while a range demand locks its covering
// stripes' mutexes in canonical ascending index order, decides the grant
// atomically against granted intervals and point owners, and registers the
// interval in each covering stripe. Ranges spanning more than half the
// table escalate to a whole-table demand (all stripes locked, still in
// ascending order), so the decision stays atomic without per-block cost.
//
// Grant semantics are exactly RangeLock's: an acquisition is granted iff it
// conflicts with no *granted* holding of another transaction (waiters are
// invisible), two holdings conflict iff their intervals overlap, and a
// transaction's own holdings never conflict (reentrancy: a covered interval
// is granted immediately from the per-tx holdings cache, without touching
// shared state). Deadlock is bounded the same way as the rest of the
// package: ascending stripe order means grant decisions themselves cannot
// deadlock, and cycles among granted two-phase holdings are broken by timed
// acquisition.
type StripedRangeLock[K cmp.Ordered] struct {
	seed       maphash.Seed // point-key table hashing
	rank       func(K) uint64
	shift      uint
	mask       uint64
	escalateAt uint64 // escalate when a range covers more than this many blocks
	stripes    []rangeStripe[K]
	hpool      sync.Pool // *rangeHoldings[K]
	spool      sync.Pool // *[]int32 covering-stripe scratch

	held        atomic.Int64  // granted demands (intervals + key grants)
	escalations atomic.Uint64 // whole-table escalations taken
	spurious    atomic.Uint64 // wakeups that re-checked and re-blocked
}

// rangeStripe holds one segment of the partitioned key space.
type rangeStripe[K cmp.Ordered] struct {
	// keys is the stripe's key→lock table (see keyTable), read lock-free on
	// the point fast path and filled in place under mu on install.
	keys keyTable[K]
	// rmark counts granted intervals registered in this stripe plus range
	// grants currently being decided here. A point acquisition that reads
	// rmark == 0 after taking its key lock is granted without touching mu:
	// the counter is bumped before any range scans owners, so a concurrent
	// range decision is guaranteed to observe the point's ownership.
	rmark atomic.Int32

	mu      sync.Mutex
	ivals   []stripedInterval[K] // granted intervals registered in this stripe
	entries []keyEntry[K]        // installed keys sorted ascending, for range owner scans
	gen     chan struct{}        // closed on each release affecting this stripe
	_       [24]byte             // pad to reduce false sharing between stripes
}

type stripedInterval[K cmp.Ordered] struct {
	lo, hi K
	tx     *stm.Tx
}

type keyEntry[K cmp.Ordered] struct {
	k K
	l *OwnerLock
}

// txInterval is one interval in a transaction's private holdings cache.
type txInterval[K cmp.Ordered] struct{ lo, hi K }

// rangeHoldings is the per-transaction holdings cache, stored in the
// transaction's Ext slot keyed by the table and recycled through the
// table's pool. Reentrancy checks (is [lo, hi] covered by something this tx
// already holds?) read it instead of scanning shared stripes, and the wake
// set remembers which stripes release must notify.
type rangeHoldings[K cmp.Ordered] struct {
	mu    sync.Mutex // parallel transaction branches share one cache
	ivals []txInterval[K]
	nkeys int // fresh key grants recorded (for the held gauge)
	wake  stripeSet
}

func (h *rangeHoldings[K]) coversLocked(lo, hi K) bool {
	for i := range h.ivals {
		e := &h.ivals[i]
		if e.lo <= lo && hi <= e.hi {
			return true
		}
	}
	return false
}

func (h *rangeHoldings[K]) reset() {
	clear(h.ivals) // drop key references (string keys) before pooling
	h.ivals = h.ivals[:0]
	h.nkeys = 0
	h.wake.reset()
}

// stripeSpill mirrors the stm lock set's small-slice threshold: holdings
// touching at most 16 stripes stay on a linear scan, beyond that the wake
// set spills to a map (and the map is dropped at release so pooled holdings
// stay lean).
const stripeSpill = 16

type stripeSet struct {
	small []int32
	spill map[int32]struct{}
}

func (ss *stripeSet) add(si int32) {
	if ss.spill != nil {
		ss.spill[si] = struct{}{}
		return
	}
	for _, v := range ss.small {
		if v == si {
			return
		}
	}
	if len(ss.small) < stripeSpill {
		ss.small = append(ss.small, si)
		return
	}
	ss.spill = make(map[int32]struct{}, 2*stripeSpill)
	for _, v := range ss.small {
		ss.spill[v] = struct{}{}
	}
	ss.spill[si] = struct{}{}
}

func (ss *stripeSet) each(fn func(int32)) {
	if ss.spill != nil {
		for v := range ss.spill {
			fn(v)
		}
		return
	}
	for _, v := range ss.small {
		fn(v)
	}
}

func (ss *stripeSet) reset() {
	ss.small = ss.small[:0]
	ss.spill = nil
}

// NewStripedRangeLock returns a striped interval lock manager over the
// default partition for K with DefaultRangeStripes stripes.
func NewStripedRangeLock[K cmp.Ordered]() *StripedRangeLock[K] {
	return NewStripedRangeLockConfig(DefaultRangeStripes, DefaultPartition[K]())
}

// NewStripedRangeLockConfig returns a striped interval lock manager with at
// least one stripe (rounded up to a power of two) and the given partition.
// A nil partition Rank collapses the table to a single stripe: correct for
// any ordered key type, with RangeLock-like concurrency.
func NewStripedRangeLockConfig[K cmp.Ordered](stripes int, p Partition[K]) *StripedRangeLock[K] {
	if p.Rank == nil {
		stripes = 1
		p.Rank = func(K) uint64 { return 0 }
		p.BlockShift = 0
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	t := &StripedRangeLock[K]{
		seed:       maphash.MakeSeed(),
		rank:       p.Rank,
		shift:      p.BlockShift,
		mask:       uint64(n - 1),
		escalateAt: uint64(n / 2),
		stripes:    make([]rangeStripe[K], n),
	}
	if n == 1 {
		t.escalateAt = math.MaxUint64
	}
	empty := newEmptyKeySlots[K]()
	for i := range t.stripes {
		t.stripes[i].keys.cur.Store(empty) // shared until the stripe's first install
	}
	t.hpool.New = func() any { return &rangeHoldings[K]{} }
	t.spool.New = func() any { b := make([]int32, 0, n); return &b }
	return t
}

func (t *StripedRangeLock[K]) stripeOf(k K) int32 {
	return int32((t.rank(k) >> t.shift) & t.mask)
}

// coveringStripes appends to buf the ascending stripe indices whose blocks
// intersect [lo, hi]. Blocks map cyclically onto stripes, so a range covers
// a contiguous cyclic window; escalation (window wider than half the table)
// covers every stripe. Ascending numeric order is the canonical acquisition
// order: all multi-stripe grant decisions lock stripe mutexes along the same
// global total order, so decisions never deadlock each other.
func (t *StripedRangeLock[K]) coveringStripes(lo, hi K, buf []int32) (idx []int32, escalated bool) {
	s := len(t.stripes)
	b1 := t.rank(lo) >> t.shift
	b2 := t.rank(hi) >> t.shift
	span := b2 - b1 + 1
	if span == 0 { // b2-b1 wrapped the whole block space
		span = math.MaxUint64
	}
	esc := s > 1 && span > t.escalateAt
	if esc || span >= uint64(s) {
		for i := 0; i < s; i++ {
			buf = append(buf, int32(i))
		}
		return buf, esc
	}
	start := int(b1 & t.mask)
	n := int(span)
	if start+n <= s {
		for i := 0; i < n; i++ {
			buf = append(buf, int32(start+i))
		}
	} else {
		for i := 0; i < start+n-s; i++ {
			buf = append(buf, int32(i))
		}
		for i := start; i < s; i++ {
			buf = append(buf, int32(i))
		}
	}
	return buf, false
}

// holdings returns tx's holdings cache for this table, installing (and
// registering the table for two-phase release) on first use.
func (t *StripedRangeLock[K]) holdings(tx *stm.Tx) *rangeHoldings[K] {
	if h, ok := tx.Ext(t).(*rangeHoldings[K]); ok {
		return h
	}
	if tx.RegisterLock(t) {
		h := t.hpool.Get().(*rangeHoldings[K])
		tx.SetExt(t, h)
		return h
	}
	// A sibling branch of a parallel transaction won the registration race
	// and is about to publish the cache; wait for it to land.
	for {
		if h, ok := tx.Ext(t).(*rangeHoldings[K]); ok {
			return h
		}
		runtime.Gosched()
	}
}

// keyLock returns the OwnerLock for k in stripe s, installing it on first
// touch (LockMap's putIfAbsent discipline). The hit path takes no locks.
func (t *StripedRangeLock[K]) keyLock(s *rangeStripe[K], k K) *OwnerLock {
	h := maphash.Comparable(t.seed, k)
	if l := s.keys.get(k, h); l != nil {
		return l
	}
	return installStripeKey(s, k, h)
}

func installStripeKey[K cmp.Ordered](s *rangeStripe[K], k K, h uint64) *OwnerLock {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, fresh := s.keys.getOrInstallLocked(k, h, nil, nil)
	if !fresh {
		return l
	}
	// Keep the sorted index range scans use in step with the table.
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entries[mid].k < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.entries = append(s.entries, keyEntry[K]{})
	copy(s.entries[lo+1:], s.entries[lo:])
	s.entries[lo] = keyEntry[K]{k: k, l: l}
	return l
}

// conflictLocked reports whether granting [lo, hi] to tx conflicts with a
// granted holding of another transaction registered in this stripe: an
// overlapping interval, or an owned key lock inside the range. When cp is
// non-nil the first conflict found is also reported to the contention policy
// (cp.OnConflict), at the one moment the holder is provably live: an
// interval holder cannot deregister without s.mu (held by the caller), and a
// key owner is reported inside the key lock's own mutex, which pins it
// against release and descriptor recycling. Callers hold s.mu with s.rmark
// already bumped. Each ownership probe takes the key lock's own mutex, so it
// serializes against the critical section in which a racing point
// acquisition stores its ownership: either the probe runs second and
// observes the owner (conflict detected), or it runs first — and then the
// point's later rmark load is ordered after our bump through that same mutex
// handoff, so the point takes the s.mu-locked confirm path and queues behind
// this decision.
func (s *rangeStripe[K]) conflictLocked(tx *stm.Tx, lo, hi K, cp ContentionPolicy) bool {
	for i := range s.ivals {
		e := &s.ivals[i]
		if e.tx != tx && e.lo <= hi && lo <= e.hi {
			if cp != nil {
				cp.OnConflict(tx, e.tx)
			}
			return true
		}
	}
	es := s.entries
	i, j := 0, len(es)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if es[mid].k < lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for ; i < len(es) && es[i].k <= hi; i++ {
		if es[i].l.otherOwnerConflict(tx, cp) {
			return true
		}
	}
	return false
}

// TryLockRange attempts to lock [lo, hi] for tx, waiting up to timeout for
// conflicting granted holdings to be released. It returns true on success.
func (t *StripedRangeLock[K]) TryLockRange(tx *stm.Tx, lo, hi K, timeout time.Duration) bool {
	if hi < lo {
		lo, hi = hi, lo
	}
	h := t.holdings(tx)
	h.mu.Lock()
	covered := h.coversLocked(lo, hi)
	h.mu.Unlock()
	if covered {
		return true
	}
	if lo == hi {
		return t.tryLockKey(tx, h, lo, timeout)
	}
	return t.tryLockSpan(tx, h, lo, hi, timeout)
}

// tryLockKey is the point fast path: one stripe, one OwnerLock, and in the
// common case no stripe mutex — the key lock is read from the snapshot,
// acquired, and confirmed against range activity by a single rmark load.
func (t *StripedRangeLock[K]) tryLockKey(tx *stm.Tx, h *rangeHoldings[K], k K, timeout time.Duration) bool {
	si := t.stripeOf(k)
	s := &t.stripes[si]
	l := t.keyLock(s, k)
	if !tx.RegisterLock(l) {
		if !tx.Shared() || l.HeldBy(tx) {
			return true // reentrant: granted and recorded by an earlier call
		}
		// A parallel sibling registered the key and is still acquiring; its
		// grant performs the stripe confirmation and the holdings record.
		return l.waitOwnedBy(tx, timeout)
	}
	switch faultpoint.Hit(faultpoint.LockRegistered) {
	case faultpoint.Timeout:
		tx.UnregisterLock(l)
		l.wakeOwnershipWaiters()
		return false
	case faultpoint.Doom:
		tx.Doom()
	}
	if !l.acquireSlow(tx, timeout) {
		tx.UnregisterLock(l)
		l.wakeOwnershipWaiters()
		return false
	}
	if !t.confirmKey(tx, s, l, k, timeout) {
		tx.UnregisterLock(l)
		l.Unlock(tx)
		t.wakeStripe(s)
		return false
	}
	h.mu.Lock()
	h.nkeys++
	h.wake.add(si)
	h.mu.Unlock()
	t.held.Add(1)
	return true
}

// confirmKey completes a point grant after the key lock is owned: the grant
// stands only if no other transaction holds a granted interval covering k.
// The rmark == 0 fast check is sound without any atomics on the ownership
// store itself: ownership is written inside the key lock's mutex, and a
// range decision bumps rmark (seq-cst) before probing that same mutex. If
// the probe saw no owner, the probe's critical section preceded ours, so
// the bump happens-before this rmark load via the mutex handoff — the load
// sees it and falls through to the s.mu-locked recheck. If the probe ran
// after our store, the range decision observed the conflict. While a
// covering interval is granted, the point waits holding its key lock
// (two-phase holdings of others are awaited, exactly like an owned
// OwnerLock).
func (t *StripedRangeLock[K]) confirmKey(tx *stm.Tx, s *rangeStripe[K], l *OwnerLock, k K, timeout time.Duration) bool {
	if s.rmark.Load() == 0 {
		return true
	}
	var timer *time.Timer
	var expired <-chan time.Time
	var doomed <-chan struct{}
	var waitStart time.Time
	cp := effectivePolicy(nil, tx)
	conflicted := false
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if conflicted {
			cp.OnWaitEnd(tx)
		}
	}()
	woke := false
	for {
		if tx.Doomed() {
			return false
		}
		s.mu.Lock()
		blocked := false
		for i := range s.ivals {
			e := &s.ivals[i]
			if e.tx != tx && e.lo <= k && k <= e.hi {
				blocked = true
				if cp != nil {
					// e.tx is pinned: deregistering needs s.mu.
					conflicted = true
					cp.OnConflict(tx, e.tx)
				}
				break
			}
		}
		if !blocked {
			s.mu.Unlock()
			if timer != nil {
				tx.System().ObserveWait(time.Since(waitStart))
			}
			return true
		}
		if s.gen == nil {
			s.gen = make(chan struct{})
		}
		wait := s.gen
		s.mu.Unlock()
		if woke {
			t.spurious.Add(1)
		}
		if timer == nil {
			// One timer for the whole wait, armed on first block — the
			// same one-shot discipline as acquireSlow.
			timer = time.NewTimer(timeout)
			expired = timer.C
			doomed = tx.DoomChan()
			waitStart = time.Now()
			rangeTimerArms.Add(1)
		}
		switch faultpoint.Hit(faultpoint.LockWait) {
		case faultpoint.Timeout:
			return false
		case faultpoint.Doom:
			tx.Doom()
		}
		select {
		case <-wait:
			woke = true
		case <-doomed:
			return false
		case <-tx.Done():
			return false
		case <-expired:
			return false
		}
	}
}

// tryLockSpan is the range path: lock the covering stripes' mutexes in
// ascending order, decide the grant atomically across all of them, register
// the interval in each on success, or back off and sleep on the first
// conflicting stripe's generation channel.
func (t *StripedRangeLock[K]) tryLockSpan(tx *stm.Tx, h *rangeHoldings[K], lo, hi K, timeout time.Duration) bool {
	buf := t.spool.Get().(*[]int32)
	idx, escalated := t.coveringStripes(lo, hi, (*buf)[:0])
	defer func() {
		*buf = idx[:0]
		t.spool.Put(buf)
	}()

	var timer *time.Timer
	var expired <-chan time.Time
	var doomed <-chan struct{}
	var waitStart time.Time
	cp := effectivePolicy(nil, tx)
	conflicted := false
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if conflicted {
			cp.OnWaitEnd(tx)
		}
	}()
	woke := false
	for {
		if tx.Doomed() {
			return false
		}
		var wait chan struct{}
		locked := 0
		for _, si := range idx {
			s := &t.stripes[si]
			s.mu.Lock()
			s.rmark.Add(1)
			locked++
			if s.conflictLocked(tx, lo, hi, cp) {
				if cp != nil {
					conflicted = true
				}
				if s.gen == nil {
					s.gen = make(chan struct{})
				}
				wait = s.gen
				break
			}
		}
		if wait == nil {
			for _, si := range idx {
				s := &t.stripes[si]
				s.ivals = append(s.ivals, stripedInterval[K]{lo: lo, hi: hi, tx: tx})
				// rmark keeps the decision-phase +1: it now counts the
				// registered interval.
				s.mu.Unlock()
			}
			h.mu.Lock()
			h.ivals = append(h.ivals, txInterval[K]{lo: lo, hi: hi})
			for _, si := range idx {
				h.wake.add(si)
			}
			h.mu.Unlock()
			t.held.Add(1)
			if escalated {
				t.escalations.Add(1)
			}
			if timer != nil {
				tx.System().ObserveWait(time.Since(waitStart))
			}
			return true
		}
		for i := 0; i < locked; i++ {
			s := &t.stripes[idx[i]]
			s.rmark.Add(-1)
			s.mu.Unlock()
		}
		if woke {
			t.spurious.Add(1)
		}
		if timer == nil {
			timer = time.NewTimer(timeout)
			expired = timer.C
			doomed = tx.DoomChan()
			waitStart = time.Now()
			rangeTimerArms.Add(1)
		}
		switch faultpoint.Hit(faultpoint.LockWait) {
		case faultpoint.Timeout:
			return false
		case faultpoint.Doom:
			tx.Doom()
		}
		select {
		case <-wait:
			woke = true
		case <-doomed:
			return false
		case <-tx.Done():
			return false
		case <-expired:
			return false
		}
	}
}

func (t *StripedRangeLock[K]) wakeStripe(s *rangeStripe[K]) {
	s.mu.Lock()
	if s.gen != nil {
		close(s.gen)
		s.gen = nil
	}
	s.mu.Unlock()
}

// LockRange locks [lo, hi] for tx with the system's default timeout,
// aborting tx on failure with the cause that explains it.
func (t *StripedRangeLock[K]) LockRange(tx *stm.Tx, lo, hi K) {
	if !t.TryLockRange(tx, lo, hi, tx.System().LockTimeout()) {
		abortAcquireFailure(tx)
	}
}

// LockKey locks the single key k (the interval [k, k]).
func (t *StripedRangeLock[K]) LockKey(tx *stm.Tx, k K) {
	t.LockRange(tx, k, k)
}

// Unlock releases every demand tx holds: intervals are deregistered from
// their stripes and only the stripes in the transaction's wake set are
// notified — waiters elsewhere in the table sleep through the release (the
// key OwnerLocks themselves are registered unlockers and are released by the
// runtime before this runs, since the table registers first and release is
// last-in-first-out). Called by the stm runtime at commit/abort.
func (t *StripedRangeLock[K]) Unlock(tx *stm.Tx) {
	h, _ := tx.Ext(t).(*rangeHoldings[K])
	if h == nil {
		return
	}
	h.mu.Lock()
	released := int64(len(h.ivals) + h.nkeys)
	h.wake.each(func(si int32) {
		s := &t.stripes[si]
		s.mu.Lock()
		if len(s.ivals) > 0 {
			kept := s.ivals[:0]
			for _, e := range s.ivals {
				if e.tx != tx {
					kept = append(kept, e)
				}
			}
			if removed := len(s.ivals) - len(kept); removed > 0 {
				for i := len(kept); i < len(s.ivals); i++ {
					s.ivals[i] = stripedInterval[K]{}
				}
				s.rmark.Add(int32(-removed))
			}
			s.ivals = kept
		}
		if s.gen != nil {
			close(s.gen)
			s.gen = nil
		}
		s.mu.Unlock()
	})
	h.reset()
	h.mu.Unlock()
	tx.SetExt(t, nil)
	t.hpool.Put(h)
	t.held.Add(-released)
}

// Holdings reports how many demands (intervals plus key grants) are
// currently held across all transactions. For tests.
func (t *StripedRangeLock[K]) Holdings() int { return int(t.held.Load()) }

// Stripes reports the stripe count.
func (t *StripedRangeLock[K]) Stripes() int { return len(t.stripes) }

// KeyLocks reports how many distinct keys have point locks installed.
func (t *StripedRangeLock[K]) KeyLocks() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += s.keys.n
		s.mu.Unlock()
	}
	return n
}

// SpuriousWakeups reports how many wait-loop wakeups re-checked and found
// their conflict still standing. The striped design's per-stripe generation
// channels keep this near zero for disjoint workloads; the legacy manager's
// single broadcast channel does not.
func (t *StripedRangeLock[K]) SpuriousWakeups() uint64 { return t.spurious.Load() }

// Escalations reports how many range grants took the whole-table path.
func (t *StripedRangeLock[K]) Escalations() uint64 { return t.escalations.Load() }

var _ stm.Unlocker = (*StripedRangeLock[int64])(nil)
