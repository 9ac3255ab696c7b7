package lockmgr

import (
	"hash/maphash"
	"sync"

	"tboost/internal/stm"
)

// DefaultStripes is the stripe count used by NewLockMap.
const DefaultStripes = 64

// LockMap associates an abstract OwnerLock with each key on demand — the
// paper's LockKey class. It is a striped concurrent hash map with
// putIfAbsent semantics: the first transaction to touch a key installs its
// lock; locks are never removed (matching the paper's implementation on
// ConcurrentHashMap).
//
// The steady state of a boosted workload is Get on keys whose locks are
// already installed, so that path is lock-free: Get hashes the key once,
// picks the stripe from the hash's high half and probes the stripe's
// keyTable with the whole hash. Installing a missing lock fills a slot in
// place under the stripe mutex, doubling the stripe's table when it passes
// 3/4 full — amortized O(1) per install, like the paper's putIfAbsent on
// ConcurrentHashMap (see keyTable).
//
// Key-based locking may serialize some commuting calls (two add(x) calls
// when x is present), but as the paper notes it provides enough concurrency
// for practical workloads while remaining cheap to evaluate.
type LockMap[K comparable] struct {
	seed    maphash.Seed
	stripes []lockStripe[K]
	policy  ContentionPolicy // nil: per-key locks consult the waiter's System
	meter   *ContentionMeter // nil: no contention accounting; inherited by every installed lock
}

type lockStripe[K comparable] struct {
	keys keyTable[K]
	mu   sync.Mutex // serializes installs
	_    [40]byte   // pad to reduce false sharing between stripes
}

// NewLockMap returns a LockMap with DefaultStripes stripes.
func NewLockMap[K comparable]() *LockMap[K] {
	return NewLockMapStripes[K](DefaultStripes)
}

// NewLockMapStripes returns a LockMap with n stripes (minimum 1). Stripe
// count is an engineering knob: the ablation benchmarks sweep it. Blocked
// acquisitions consult the waiting transaction's system-wide contention
// policy.
func NewLockMapStripes[K comparable](n int) *LockMap[K] {
	return NewLockMapPolicy[K](n, nil)
}

// NewLockMapPolicy returns a LockMap whose per-key locks use the given
// contention policy, overriding the system-wide choice (nil is
// NewLockMapStripes).
func NewLockMapPolicy[K comparable](n int, p ContentionPolicy) *LockMap[K] {
	if n < 1 {
		n = 1
	}
	m := &LockMap[K]{
		seed:    maphash.MakeSeed(),
		stripes: make([]lockStripe[K], n),
		policy:  p,
	}
	empty := newEmptyKeySlots[K]()
	for i := range m.stripes {
		m.stripes[i].keys.cur.Store(empty) // shared until the stripe's first install
	}
	return m
}

// SetMeter attaches a contention meter to the table: every lock already
// installed and every lock installed afterwards feeds it, so the meter
// aggregates the whole table's blocked-path activity. Configuration-time
// only, before the table is shared (the adaptive engine calls it at
// construction); the install path reads the field unsynchronized on that
// contract.
func (m *LockMap[K]) SetMeter(cm *ContentionMeter) {
	m.meter = cm
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		s.keys.eachLocked(func(l *OwnerLock) { l.SetMeter(cm) })
		s.mu.Unlock()
	}
}

// Get returns the abstract lock for key, creating it if absent. The hit
// path — every access after a key's first — takes no locks.
func (m *LockMap[K]) Get(key K) *OwnerLock {
	h := maphash.Comparable(m.seed, key)
	// The stripe comes from the high half (multiply-shift onto [0, n)); the
	// table indexes with the low bits, which stay uniform within a stripe.
	s := &m.stripes[(h>>32)*uint64(len(m.stripes))>>32]
	if l := s.keys.get(key, h); l != nil {
		return l
	}
	s.mu.Lock()
	l, _ := s.keys.getOrInstallLocked(key, h, m.policy, m.meter)
	s.mu.Unlock()
	return l
}

// Lock acquires the abstract lock for key on behalf of tx, creating the lock
// if needed, using the system's default timeout and aborting tx on expiry.
// This is the single call the boosted skip list makes before every add,
// remove, or contains.
func (m *LockMap[K]) Lock(tx *stm.Tx, key K) {
	m.Get(key).Acquire(tx)
}

// Len reports how many distinct keys have locks installed.
func (m *LockMap[K]) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += s.keys.n
		s.mu.Unlock()
	}
	return n
}

// Stripes reports the stripe count.
func (m *LockMap[K]) Stripes() int { return len(m.stripes) }
