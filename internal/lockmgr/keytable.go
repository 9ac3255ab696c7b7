package lockmgr

import "sync/atomic"

// keyTable is the key→lock table behind LockMap's stripes and
// StripedRangeLock's point keys: putIfAbsent semantics, no removal, lookups
// that take no locks, and amortized O(1) installs.
//
// The table is an open-addressed, linearly probed array of node pointers
// whose length is a power of two. A node carries its key, the key's hash and
// the OwnerLock itself, so an install allocates one node and nothing else.
// Installs run under the owner's mutex (the stripe's); they fill a nil slot
// in place, and once the load would pass 3/4 they first double the array
// into a fresh one and publish it through cur. Each doubling moves every
// node once, so over N installs the moves sum to under 2N.
//
// A reader loads cur once and probes until it finds the key or a nil slot.
// Nodes are immutable once stored and the same nodes are shared between an
// array and its doubled successor, so a reader still probing a replaced
// array can only miss a key installed after the replacement — and a miss
// falls through to the mutex path, which probes the current array.
type keyTable[K comparable] struct {
	cur atomic.Pointer[keySlots[K]]
	n   int // installed keys; guarded by the owner's mutex
}

type keySlots[K comparable] struct {
	slot []atomic.Pointer[keyNode[K]]
	mask uint64
}

type keyNode[K comparable] struct {
	key  K
	hash uint64
	lock OwnerLock
}

// newEmptyKeySlots returns a one-slot array that stays empty: the first
// install into a table using it always doubles first, so it can be shared
// by every table of a lock manager until each takes its first key.
func newEmptyKeySlots[K comparable]() *keySlots[K] {
	return &keySlots[K]{slot: make([]atomic.Pointer[keyNode[K]], 1)}
}

// find returns the node for key, or nil. The load factor stays at or below
// 3/4, so every probe sequence reaches a nil slot.
func (s *keySlots[K]) find(key K, h uint64) *keyNode[K] {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		n := s.slot[i].Load()
		if n == nil || n.hash == h && n.key == key {
			return n
		}
	}
}

// put stores n in the first nil slot of its probe sequence.
func (s *keySlots[K]) put(n *keyNode[K]) {
	i := n.hash & s.mask
	for s.slot[i].Load() != nil {
		i = (i + 1) & s.mask
	}
	s.slot[i].Store(n)
}

// get returns the lock installed for key (h is its hash), or nil. Lock-free.
func (t *keyTable[K]) get(key K, h uint64) *OwnerLock {
	if n := t.cur.Load().find(key, h); n != nil {
		return &n.lock
	}
	return nil
}

// getOrInstallLocked returns key's lock, installing one with policy p and
// meter cm if absent; fresh reports whether it did. The caller holds the
// owner's mutex.
func (t *keyTable[K]) getOrInstallLocked(key K, h uint64, p ContentionPolicy, cm *ContentionMeter) (l *OwnerLock, fresh bool) {
	s := t.cur.Load()
	if n := s.find(key, h); n != nil {
		return &n.lock, false
	}
	n := &keyNode[K]{key: key, hash: h}
	n.lock.init(p)
	n.lock.meter = cm
	if 4*(t.n+1) <= 3*len(s.slot) {
		s.put(n)
	} else {
		next := &keySlots[K]{slot: make([]atomic.Pointer[keyNode[K]], max(8, 2*len(s.slot)))}
		next.mask = uint64(len(next.slot) - 1)
		for i := range s.slot {
			if old := s.slot[i].Load(); old != nil {
				next.put(old)
			}
		}
		next.put(n)
		t.cur.Store(next)
	}
	t.n++
	return &n.lock, true
}

// eachLocked calls fn with every installed lock. The caller holds the
// owner's mutex.
func (t *keyTable[K]) eachLocked(fn func(*OwnerLock)) {
	s := t.cur.Load()
	for i := range s.slot {
		if n := s.slot[i].Load(); n != nil {
			fn(&n.lock)
		}
	}
}
