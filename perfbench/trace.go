package main

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"tboost"
)

// The traced run times calls into each layer's public surface from this
// package: request roots and body attempts in the client loop, boosted-object
// calls around each MapOf/OrderedSetOf call, blocked waits through the
// contention policy, log calls through a durability sink wrapping the WAL,
// and base-map calls through a BaseMapOf wrapping the red-black tree. Nothing
// inside the library is instrumented.

var epoch = time.Now()

// now is the monotonic clock in nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// key names one accumulator of a request: a span kind at a layer boundary.
type key int

const (
	kRoot       key = iota // the Atomic / ReadOnly / Span call, as the client timed it
	kBody                  // body attempts
	kWasted                // body attempts that were rolled back and retried
	kGet                   // MapOf.Get in a read-write transaction
	kGetRO                 // MapOf.Get in a snapshot
	kPut                   // MapOf.Put on a key seen before
	kPutFresh              // MapOf.Put on a never-seen key (installs its abstract lock)
	kRange                 // OrderedSetOf.KeysRange
	kPoint                 // OrderedSetOf.Add / Remove
	kWait                  // blocked wait for an abstract lock
	kWaitMap               // the part of kWait spent inside a MapOf call
	kCommit                // sink Commit: the WAL append under the locks
	kBarrier               // the durability barrier Commit returned
	kPrepare               // sink Prepare: the forced prepare record
	kDecide                // sink Decide call
	kDecideWait            // the barrier Decide returned
	nKeys
)

var keyNames = [nKeys]string{
	"root", "stm.body", "stm.body_wasted", "core.map_get", "core.map_get_ro",
	"core.map_put", "core.map_put_fresh", "core.ordered_range", "core.ordered_point",
	"lockmgr.wait", "lockmgr.wait_in_map", "wal.append", "wal.barrier",
	"wal.prepare", "wal.decide", "wal.decide_barrier",
}

type cell struct{ ns, n int64 }

type acc [nKeys]cell

func (a *acc) add(k key, d int64) {
	a[k].ns += d
	a[k].n++
}

func (a *acc) merge(o *acc) {
	for k := range a {
		a[k].ns += o[k].ns
		a[k].n += o[k].n
	}
}

// iv is one recorded span: its kind, the index of its parent in the same
// request (-1 for children of the root) and its interval.
type iv struct {
	K      key
	Parent int32
	T0, T1 int64
}

// slot is the per-goroutine tracing context of one request: a client's own
// transaction, or one branch of its span. The contention policy and the sink
// find the slot of the transaction they were called for by descriptor or id;
// all other fields are written only by the goroutine running that
// transaction, or after it has been joined.
type slot struct {
	tr   *tracer
	tx   atomic.Pointer[tboost.Tx] // transaction whose body is running, nil between attempts
	txid atomic.Uint64             // id of the latest attempt, kept after the body for the sink

	acc      acc
	attempts int
	lastBody int64
	waits    []int64
	waitT0   int64
	waiting  bool
	call     key // boosted call in progress, kRoot when none

	rec     bool // keep intervals: span requests and sampled requests
	ivs     []iv
	bodyIdx int32
	callIdx int32
}

func (s *slot) reset(rec bool) {
	s.acc = acc{}
	s.attempts = 0
	s.lastBody = 0
	s.waits = s.waits[:0]
	s.waiting = false
	s.call = kRoot
	s.rec = rec
	s.ivs = s.ivs[:0]
	s.bodyIdx, s.callIdx = -1, -1
}

func (s *slot) record(k key, parent int32, t0, t1 int64) int32 {
	if !s.rec {
		return -1
	}
	s.ivs = append(s.ivs, iv{K: k, Parent: parent, T0: t0, T1: t1})
	return int32(len(s.ivs) - 1)
}

// body runs one body attempt under the slot. A retry means the previous
// attempt was rolled back, so its time is counted as wasted.
func (s *slot) body(tx *tboost.Tx, fn func(*tboost.Tx) error) error {
	if s.tr == nil {
		return fn(tx)
	}
	if s.attempts > 0 {
		s.acc.add(kWasted, s.lastBody)
	}
	s.attempts++
	s.txid.Store(tx.ID())
	s.tx.Store(tx)
	t0 := now()
	s.bodyIdx = s.record(kBody, -1, t0, t0)
	// An abort unwinds through here as a panic; the deferred close still
	// charges the attempt.
	defer func() {
		t1 := now()
		s.tx.Store(nil)
		s.lastBody = t1 - t0
		s.acc.add(kBody, t1-t0)
		if s.bodyIdx >= 0 {
			s.ivs[s.bodyIdx].T1 = t1
		}
		s.bodyIdx = -1
	}()
	return fn(tx)
}

func (s *slot) callBegin(k key) int64 {
	s.call = k
	t0 := now()
	s.callIdx = s.record(k, s.bodyIdx, t0, t0)
	return t0
}

func (s *slot) callEnd(k key, t0 int64) {
	t1 := now()
	s.acc.add(k, t1-t0)
	if s.callIdx >= 0 {
		s.ivs[s.callIdx].T1 = t1
	}
	s.call, s.callIdx = kRoot, -1
}

func (s *slot) waitBegin() {
	if !s.waiting {
		s.waiting = true
		s.waitT0 = now()
	}
}

func (s *slot) waitEnd() {
	if !s.waiting {
		return
	}
	s.waiting = false
	t1 := now()
	d := t1 - s.waitT0
	s.acc.add(kWait, d)
	switch s.call {
	case kGet, kPut, kPutFresh:
		s.acc.add(kWaitMap, d)
	}
	s.waits = append(s.waits, d)
	s.record(kWait, s.callIdx, s.waitT0, t1)
}

// sink charges a log call made on behalf of this slot's transaction.
func (s *slot) sink(k key, t0, t1 int64) {
	s.acc.add(k, t1-t0)
	s.record(k, -1, t0, t1)
}

// tracer owns the slots and the counters of calls that carry no
// transaction: the base map sees only keys, so its time is summed globally
// while the measured window is open.
type tracer struct {
	slots  []*slot
	on     atomic.Bool
	baseNs atomic.Int64
	baseN  atomic.Int64
}

func (t *tracer) newSlot() *slot {
	s := &slot{tr: t}
	s.reset(false)
	t.slots = append(t.slots, s)
	return s
}

func (t *tracer) byTx(tx *tboost.Tx) *slot {
	for _, s := range t.slots {
		if s.tx.Load() == tx {
			return s
		}
	}
	return nil
}

func (t *tracer) byID(id uint64) *slot {
	for _, s := range t.slots {
		if s.txid.Load() == id {
			return s
		}
	}
	return nil
}

// tracedPolicy is the paper's timeout discipline — it does nothing at a
// blocking point, exactly as the library's default — plus a timer on each
// blocked wait.
type tracedPolicy struct{ tr *tracer }

func (tracedPolicy) Name() string { return "timeout" }

func (p tracedPolicy) OnConflict(waiter, _ *tboost.Tx) {
	if s := p.tr.byTx(waiter); s != nil {
		s.waitBegin()
	}
}

func (p tracedPolicy) OnWaitEnd(waiter *tboost.Tx) {
	if s := p.tr.byTx(waiter); s != nil {
		s.waitEnd()
	}
}

// timedSink wraps a *tboost.WAL as the System's durability sink and times
// each call. O is the log's redo-op type, inferred from the WAL's method
// values, so the wrapper needs no import of the package that declares it.
type timedSink[O any] struct {
	tr         *tracer
	overloaded func() bool
	commit     func(txID uint64, ops []O) func() error
	prepare    func(txID, gid uint64, ops []O) error
	decide     func(txID, gid uint64, commit bool) (func() error, error)
}

func newTimedSink[O any](tr *tracer, overloaded func() bool,
	commit func(uint64, []O) func() error,
	prepare func(uint64, uint64, []O) error,
	decide func(uint64, uint64, bool) (func() error, error)) *timedSink[O] {
	return &timedSink[O]{tr: tr, overloaded: overloaded, commit: commit, prepare: prepare, decide: decide}
}

func (w *timedSink[O]) Overloaded() bool { return w.overloaded() }

func (w *timedSink[O]) Commit(txID uint64, ops []O) func() error {
	s := w.tr.byID(txID)
	if s == nil {
		return w.commit(txID, ops)
	}
	t0 := now()
	wait := w.commit(txID, ops)
	s.sink(kCommit, t0, now())
	return s.timedWait(kBarrier, wait)
}

func (w *timedSink[O]) Prepare(txID, gid uint64, ops []O) error {
	s := w.tr.byID(txID)
	if s == nil {
		return w.prepare(txID, gid, ops)
	}
	t0 := now()
	err := w.prepare(txID, gid, ops)
	s.sink(kPrepare, t0, now())
	return err
}

func (w *timedSink[O]) Decide(txID, gid uint64, commit bool) (func() error, error) {
	s := w.tr.byID(txID)
	if s == nil {
		return w.decide(txID, gid, commit)
	}
	t0 := now()
	wait, err := w.decide(txID, gid, commit)
	s.sink(kDecide, t0, now())
	return s.timedWait(kDecideWait, wait), err
}

func (s *slot) timedWait(k key, wait func() error) func() error {
	if wait == nil {
		return nil
	}
	return func() error {
		t0 := now()
		err := wait()
		s.sink(k, t0, now())
		return err
	}
}

// timedBase wraps the red-black-tree base map that the boosted maps run on.
type timedBase struct {
	base tboost.BaseMapOf[int64, int64]
	tr   *tracer
}

func (b *timedBase) done(t0 int64) {
	if b.tr.on.Load() {
		b.tr.baseNs.Add(now() - t0)
		b.tr.baseN.Add(1)
	}
}

func (b *timedBase) Get(k int64) (int64, bool) {
	t0 := now()
	v, ok := b.base.Get(k)
	b.done(t0)
	return v, ok
}

func (b *timedBase) Put(k, v int64) (int64, bool) {
	t0 := now()
	old, ok := b.base.Put(k, v)
	b.done(t0)
	return old, ok
}

func (b *timedBase) Delete(k int64) (int64, bool) {
	t0 := now()
	old, ok := b.base.Delete(k)
	b.done(t0)
	return old, ok
}

func (b *timedBase) Len() int { return baseLen(b.base) }

// Keys lets the WAL checkpoint a map bound over the wrapper.
func (b *timedBase) Keys() []int64 { return b.base.(interface{ Keys() []int64 }).Keys() }

// union returns the total length of the union of ivs clipped to [lo, hi],
// and the clipped sum of their lengths.
func union(ivs []iv, lo, hi int64) (cover, sum int64) {
	type seg struct{ a, b int64 }
	segs := make([]seg, 0, len(ivs))
	for _, v := range ivs {
		a, b := max(v.T0, lo), min(v.T1, hi)
		if b > a {
			segs = append(segs, seg{a, b})
			sum += b - a
		}
	}
	slices.SortFunc(segs, func(x, y seg) int { return cmp.Compare(x.a, y.a) })
	var end int64 = lo
	for _, g := range segs {
		if g.b <= end {
			continue
		}
		cover += g.b - max(g.a, end)
		end = g.b
	}
	return cover, sum
}
