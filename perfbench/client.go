package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"tboost"
)

// Boosted-object calls as the bodies make them. Untraced, each is the plain
// call; traced, it is timed as one span under the current body attempt.

func (s *slot) get(tx *tboost.Tx, m *tboost.MapOf[int64, int64], k int64) (int64, bool) {
	if s.tr == nil {
		return m.Get(tx, k)
	}
	kind := kGet
	if tx.ReadOnly() {
		kind = kGetRO
	}
	t0 := s.callBegin(kind)
	defer s.callEnd(kind, t0)
	return m.Get(tx, k)
}

// put binds k; fresh says the key has never been written, so the call also
// installs the key's abstract lock.
func (s *slot) put(tx *tboost.Tx, m *tboost.MapOf[int64, int64], k, v int64, fresh bool) {
	if s.tr == nil {
		m.Put(tx, k, v)
		return
	}
	kind := kPut
	if fresh {
		kind = kPutFresh
	}
	t0 := s.callBegin(kind)
	defer s.callEnd(kind, t0)
	m.Put(tx, k, v)
}

func (s *slot) keysRange(tx *tboost.Tx, o *tboost.OrderedSetOf[int64], lo, hi int64) []int64 {
	if s.tr == nil {
		return o.KeysRange(tx, lo, hi)
	}
	t0 := s.callBegin(kRange)
	defer s.callEnd(kRange, t0)
	return o.KeysRange(tx, lo, hi)
}

func (s *slot) contains(tx *tboost.Tx, o *tboost.OrderedSetOf[int64], k int64) bool {
	if s.tr == nil {
		return o.Contains(tx, k)
	}
	t0 := s.callBegin(kPoint)
	defer s.callEnd(kPoint, t0)
	return o.Contains(tx, k)
}

func (s *slot) move(tx *tboost.Tx, o *tboost.OrderedSetOf[int64], from, to int64) {
	if s.tr == nil {
		o.Remove(tx, from)
		o.Add(tx, to)
		return
	}
	t0 := s.callBegin(kPoint)
	o.Remove(tx, from)
	s.callEnd(kPoint, t0)
	t0 = s.callBegin(kPoint)
	defer s.callEnd(kPoint, t0)
	o.Add(tx, to)
}

// client is one closed-loop client: it executes its generator's next
// operation only after the previous one returned.
type client struct {
	id  int
	w   *world
	gen *gen
	cur op

	sl  *slot   // the client's own transactions
	bsl []*slot // one per span branch
	tr  *tracer // nil when untraced
	log io.Writer

	bodies   [nOps]func(*tboost.Tx) error
	branches []tboost.Branch
	readers  []func(*tboost.Tx) error

	// Business state, kept on every completed operation, measured or not.
	orders    int64     // acknowledged orders; without tally, ids 0..orders-1 exist
	picked    int64     // item the last order body chose
	sold      [][]int64 // [System][item] quantity taken by acknowledged orders
	restocked [][]int64 // [System][item] quantity added by committed restocks
	committed int64     // committed writers and spans since set-up
	badReads  int64     // hot snapshots whose bank total was wrong
	spinOut   uint64

	winStart int64 // when the client was released into the window
	m        meas
}

// meas is what a client counts inside the measured window.
type meas struct {
	att, ok, declined, failed [nClasses]int64
	lat                       [nClasses]hist

	tot      [nClasses]acc
	waits    hist
	spanSelf int64
	overlap  int64
	dumps    []dump
	sampleN  int

	secs [][nClasses]hist // per-second latencies of the window, with sliceTails
}

func newClient(id int, w *world, seed uint64, tr *tracer, log io.Writer) *client {
	sp := w.sp
	c := &client{id: id, w: w, gen: newGen(seed, id, sp), tr: tr, log: log}
	if tr != nil {
		c.sl = tr.newSlot()
	} else {
		c.sl = &slot{}
	}
	c.restocked = make([][]int64, sp.systems)
	c.sold = make([][]int64, sp.systems)
	for i := range c.restocked {
		c.restocked[i] = make([]int64, sp.items)
		c.sold[i] = make([]int64, sp.items)
	}
	fns := [nOps]func(*tboost.Tx) error{c.transfer, c.order, c.restock, nil, c.hotRead}
	for k, fn := range fns {
		if fn != nil {
			c.bodies[k] = func(tx *tboost.Tx) error { return c.sl.body(tx, fn) }
		}
	}
	for i := range w.shards {
		bs := &slot{}
		if tr != nil {
			bs = tr.newSlot()
		}
		c.bsl = append(c.bsl, bs)
		branch := func(tx *tboost.Tx) error { return c.branch(tx, i) }
		c.branches = append(c.branches, func(tx *tboost.Tx, _ uint64) error { return bs.body(tx, branch) })
		read := func(tx *tboost.Tx) error { return c.mixRead(tx, i) }
		c.readers = append(c.readers, func(tx *tboost.Tx) error { return c.sl.body(tx, read) })
	}
	return c
}

// spin is the fixed CPU-bound work a hot writer does between operations.
// It is a loop, not a sleep: on the 2-vCPU VM the benchmark was tuned on,
// a 20 µs sleep costs about 1 ms.
func (c *client) spin() {
	x := c.spinOut | 1
	for i := 0; i < c.w.sp.work; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	c.spinOut = x
}

func (c *client) transfer(tx *tboost.Tx) error {
	o, sh, s := &c.cur, c.w.shards[c.cur.sys], c.sl
	if c.w.sp.work > 0 {
		c.hotTransfer(tx, sh)
		return nil
	}
	va, _ := s.get(tx, sh.accts, o.a)
	if va < o.amt {
		return errDecline
	}
	vb, _ := s.get(tx, sh.accts, o.b)
	s.put(tx, sh.accts, o.a, va-o.amt, false)
	s.put(tx, sh.accts, o.b, vb+o.amt, false)
	return nil
}

// hotTransfer moves amt from a to b and from c to d, spinning after each
// read. It reads (and so locks) the four accounts in ascending order, so two
// transfers that share accounts block on each other but never deadlock into
// a lock timeout.
func (c *client) hotTransfer(tx *tboost.Tx, sh *shard) {
	o, s := &c.cur, c.sl
	acct := [4]int64{o.a, o.b, o.c, o.d}
	delta := [4]int64{-o.amt, o.amt, -o.amt, o.amt}
	idx := [4]int{0, 1, 2, 3}
	slices.SortFunc(idx[:], func(x, y int) int { return cmp.Compare(acct[x], acct[y]) })
	var bal [4]int64
	for _, i := range idx {
		bal[i], _ = s.get(tx, sh.accts, acct[i])
		c.spin()
	}
	for _, i := range idx {
		s.put(tx, sh.accts, acct[i], bal[i]+delta[i], false)
	}
}

func (c *client) orderID() int64 { return int64(c.id+1)<<orderBits | c.orders }

func (c *client) order(tx *tboost.Tx) error {
	o, sh, s := &c.cur, c.w.shards[c.cur.sys], c.sl
	keys := s.keysRange(tx, sh.prices, pkey(o.lo, 0), pkey(o.hi, 1<<itemBits-1))
	if len(keys) == 0 {
		return errDecline
	}
	item := keys[0] & (1<<itemBits - 1)
	c.spin()
	st, _ := s.get(tx, sh.stock, item)
	if st&0xffffffff < o.qty {
		return errDecline
	}
	s.put(tx, sh.stock, item, st-o.qty, false)
	if c.w.sp.tally {
		n, _ := s.get(tx, sh.orders, item)
		s.put(tx, sh.orders, item, n+o.qty, false)
	} else {
		s.put(tx, sh.orders, c.orderID(), item<<32|o.qty, true)
	}
	c.picked = item
	return nil
}

// restock sets an item's price and adds to its stock. It first locks both
// of the item's possible price-index keys, lower key first, and only then
// its stock: an order also locks its price range before the stock it takes
// from, so orders and restocks never deadlock into a lock timeout.
func (c *client) restock(tx *tboost.Tx) error {
	o, sh, s := &c.cur, c.w.shards[c.cur.sys], c.sl
	to, alt := pkey(o.price, o.item), pkey(o.alt, o.item)
	lo, hi := min(to, alt), max(to, alt)
	inLo, inHi := s.contains(tx, sh.prices, lo), s.contains(tx, sh.prices, hi)
	if inLo == inHi {
		return fmt.Errorf("price index holds %v and %v of item %d's two prices", inLo, inHi, o.item)
	}
	if inAlt := inLo == (lo == alt); inAlt {
		s.move(tx, sh.prices, alt, to)
	}
	c.spin()
	st, _ := s.get(tx, sh.stock, o.item)
	s.put(tx, sh.stock, o.item, o.price<<32|(st&0xffffffff+o.qty), false)
	return nil
}

// branch is System i's part of a cross-System transfer: the debit on the
// operation's System, the credit on the other.
func (c *client) branch(tx *tboost.Tx, i int) error {
	o, sh, s := &c.cur, c.w.shards[i], c.bsl[i]
	if i == o.sys {
		v, _ := s.get(tx, sh.accts, o.a)
		if v < o.amt {
			return errDecline
		}
		s.put(tx, sh.accts, o.a, v-o.amt, false)
		return nil
	}
	v, _ := s.get(tx, sh.accts, o.b)
	s.put(tx, sh.accts, o.b, v+o.amt, false)
	return nil
}

// mixRead reads one customer's block of readBlock consecutive accounts on
// System i, and one item's stock.
func (c *client) mixRead(tx *tboost.Tx, i int) error {
	o, sh, s := &c.cur, c.w.shards[i], c.sl
	var sum int64
	for k := range int64(readBlock) {
		v, _ := s.get(tx, sh.accts, (o.a+k)%int64(c.w.sp.accounts))
		sum += v
	}
	st, _ := s.get(tx, sh.stock, o.item)
	c.spinOut += uint64(sum + st)
	return nil
}

// hotRead scans the whole hot set; every snapshot must see the exact total.
func (c *client) hotRead(tx *tboost.Tx) error {
	sp, sh, s := c.w.sp, c.w.shards[0], c.sl
	var sum int64
	for k := 0; k < sp.accounts; k++ {
		v, _ := s.get(tx, sh.accts, int64(k))
		sum += v
	}
	if sum != int64(sp.accounts)*sp.initBal {
		c.badReads++
	}
	return nil
}

func (c *client) do(o *op) (int, error) {
	w := c.w
	switch o.kind {
	case opSpan:
		bs := c.branches
		_, err := w.coord.Span(bs...)
		return cSpan, err
	case opRead:
		if w.coord == nil {
			return cRead, w.shards[0].sys.AtomicRO(c.bodies[opRead])
		}
		rs := w.coord.ReadOnlySpan()
		defer rs.Close()
		for i, fn := range c.readers {
			if err := rs.Atomic(i, fn); err != nil {
				return cRead, err
			}
		}
		return cRead, nil
	default:
		return cWrite, w.shards[o.sys].sys.Atomic(c.bodies[o.kind])
	}
}

// sampleEvery and maxDumps bound the spans a traced client keeps in memory
// for the dump written at exit.
const (
	sampleEvery = 64
	maxDumps    = 4096
)

// run executes warm operations, then marks itself ready and waits for
// start. It then executes operations until stop is set, measuring those
// that begin while in is set.
func (c *client) run(warm int, ready *sync.WaitGroup, start <-chan struct{}, in, stop *atomic.Bool) {
	for range warm {
		c.step(false)
	}
	ready.Done()
	<-start
	c.winStart = now()
	for !stop.Load() {
		c.step(in.Load())
	}
}

// step generates and executes one operation; in says whether it counts.
func (c *client) step(in bool) {
	c.gen.next(&c.cur)
	traced := c.tr != nil && in
	isSpan := c.cur.kind == opSpan
	rec := false
	if traced {
		c.m.sampleN++
		rec = c.m.sampleN%sampleEvery == 0 && len(c.m.dumps) < maxDumps
	}
	if c.tr != nil {
		c.sl.reset(rec)
		if isSpan {
			for _, b := range c.bsl {
				b.reset(traced)
			}
		}
	}
	t0 := now()
	cls, err := c.do(&c.cur)
	t1 := now()

	declined := errors.Is(err, errDecline)
	if err == nil {
		c.acknowledge()
	}
	if !in {
		return
	}
	m := &c.m
	m.att[cls]++
	switch {
	case err == nil:
		m.ok[cls]++
		m.lat[cls].add(t1 - t0)
		if len(m.secs) > 0 {
			i := min(int((t0-c.winStart)/1e9), len(m.secs)-1)
			m.secs[max(i, 0)][cls].add(t1 - t0)
		}
	case declined:
		m.declined[cls]++
	default:
		m.failed[cls]++
		if m.failed[cls] <= 3 {
			fmt.Fprintf(c.log, "client %d: %s failed: %v\n", c.id, classNames[cls], err)
		}
	}
	if traced {
		c.fold(cls, t0, t1, rec)
	}
}

// acknowledge books a committed operation's business effects.
func (c *client) acknowledge() {
	o := &c.cur
	switch o.kind {
	case opOrder:
		c.orders++
		c.sold[o.sys][c.picked] += o.qty
		c.committed++
	case opRestock:
		c.restocked[o.sys][o.item] += o.qty
		c.committed++
	case opTransfer, opSpan:
		c.committed++
	}
}

// dump is one sampled request's spans, written out when the run ends.
type dump struct {
	Class  string `json:"class"`
	T0     int64  `json:"start_ns"`
	T1     int64  `json:"end_ns"`
	Spans  []span `json:"spans"`
	Client int    `json:"client"`
}

type span struct {
	Layer  string `json:"layer"`
	Parent int32  `json:"parent"` // index in spans, -1 for the request root
	Branch int    `json:"branch"` // span branch that ran it, -1 for the client's own goroutine
	T0     int64  `json:"start_ns"`
	T1     int64  `json:"end_ns"`
}

// fold adds one measured request's spans to the client's totals.
func (c *client) fold(cls int, t0, t1 int64, rec bool) {
	m := &c.m
	t := &m.tot[cls]
	t.add(kRoot, t1-t0)
	slots := []*slot{c.sl}
	if cls == cSpan {
		slots = append(slots, c.bsl...)
	}
	var top []iv
	for _, s := range slots {
		t.merge(&s.acc)
		for _, d := range s.waits {
			m.waits.add(d)
		}
		if cls == cSpan {
			for _, v := range s.ivs {
				if v.Parent < 0 {
					top = append(top, v)
				}
			}
		}
	}
	if cls == cSpan {
		cover, sum := union(top, t0, t1)
		m.spanSelf += t1 - t0 - cover
		m.overlap += sum - cover
	}
	if !rec {
		return
	}
	d := dump{Class: classNames[cls], T0: t0, T1: t1, Client: c.id}
	for bi, s := range slots {
		base := int32(len(d.Spans))
		for _, v := range s.ivs {
			p := v.Parent
			if p >= 0 {
				p += base
			}
			d.Spans = append(d.Spans, span{Layer: keyNames[v.K], Parent: p, Branch: bi - 1, T0: v.T0, T1: v.T1})
		}
	}
	m.dumps = append(m.dumps, d)
}
