package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"tboost"
)

// Operation kinds a client generator emits.
const (
	opTransfer = iota // single-System bank transfer
	opOrder           // warehouse order: price-range query, stock decrement, fresh order id
	opRestock         // warehouse restock: stock increment and a price-index move
	opSpan            // cross-System transfer through the two-phase-commit coordinator
	opRead            // snapshot read
	nOps
)

// Request classes: what each end-to-end latency and throughput is made of.
const (
	cWrite = iota // Atomic writers: transfers, orders, restocks
	cSpan         // Span writers
	cRead         // ReadOnly / ReadOnlySpan snapshot readers
	nClasses
)

var classNames = [nClasses]string{"write", "span", "read"}

const (
	initQty   = 1_000_000
	itemBits  = 16 // price-index key = price<<itemBits | item
	orderBits = 40 // order id = (client+1)<<orderBits | per-client sequence
	readBlock = 16 // accounts per System a mix snapshot read covers
)

// spec sizes one workload. Every workload runs two closed-loop clients.
type spec struct {
	name     string
	durable  bool // Async-mode WAL per System and a durable coordinator decision log
	systems  int
	accounts int // bank accounts per System
	items    int // warehouse items per System
	initBal  int64
	maxPrice int64
	window   int64 // width of an order's price-range query
	work     int   // CPU-bound spin iterations between a hot writer's operations
	warm     int   // operations each client runs before the window opens
	// tally makes an order add to its item's sold count in the orders map
	// instead of storing itself under a fresh id, so the keyspace stays put.
	tally bool
	// sliceTails makes each p99 the median of the window's per-second
	// p99s instead of the whole window's p99 (see NOTES.md).
	sliceTails bool
	mix        [nOps]int
}

var specs = map[string]spec{
	// Every commit is encoded and appended to a WAL that a background writer
	// flushes every 200 ms; no client waits on an fsync. BENCHMARK.json
	// leaves it out: no variant with log I/O was steady on the measurement
	// machine (see NOTES.md). It runs by hand and in the smoke test.
	"durable-mix": {
		name: "durable-mix", durable: true, systems: 2, accounts: 512, items: 64,
		initBal: 1_000_000, maxPrice: 1000, window: 50, warm: 100000, tally: true, sliceTails: true,
		mix: [nOps]int{60, 10, 10, 0, 20},
	},
	// The same objects with no log, plus cross-System spans and fresh order
	// ids: all CPU path, over a working set larger than the last-level cache.
	"memory-mix": {
		name: "memory-mix", systems: 2, accounts: 131072, items: 1024,
		initBal: 1000, maxPrice: 1000, window: 50, warm: 40000,
		mix: [nOps]int{60, 10, 10, 10, 10},
	},
	// A hot set that fits in L1/L2: writers block on each other's abstract
	// locks; readers scan the whole set beside them.
	"hot-contended": {
		name: "hot-contended", systems: 1, accounts: 32, items: 8,
		initBal: 1_000_000, maxPrice: 64, window: 16, work: 100, tally: true, warm: 30000, sliceTails: true,
		mix: [nOps]int{30, 12, 8, 0, 50},
	},
}

func pkey(price, item int64) int64 { return price<<itemBits | item }

// listPrice is an item's regular price, drawn from the seed. A restock sets
// either it or the sale price, three quarters of it, so each item has two
// possible price-index keys: the index's lock table stops growing once
// both have been used, and a run measures a steady state.
func listPrice(sp *spec, seed uint64, item int64) int64 {
	x := seed ^ uint64(item)*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return 4 + int64(x%uint64(sp.maxPrice-3))
}

func salePrice(list int64) int64 { return list * 3 / 4 }

var errDecline = errors.New("declined: insufficient funds or stock")

// walFlushEvery is how long durable-mix's log writer lingers after a
// batch's first record before it writes and fsyncs the batch. A writer in
// fsync holds one of the two processors until the runtime takes it back,
// so shorter windows took measurable time from the clients.
const walFlushEvery = 200 * time.Millisecond

// shard is one System and its objects. Warehouse state lives only in
// objects the WAL can bind, so recovery can be checked in full.
type shard struct {
	sys    *tboost.System
	log    *tboost.WAL
	accts  *tboost.MapOf[int64, int64] // account -> balance
	stock  *tboost.MapOf[int64, int64] // item -> price<<32 | quantity
	orders *tboost.MapOf[int64, int64] // order id -> item<<32 | quantity; with tally, item -> quantity sold
	prices *tboost.OrderedSetOf[int64] // price<<itemBits | item, one entry per item

	replayed int // records the WAL replayed when this shard was opened
}

func newMap(tr *tracer) *tboost.MapOf[int64, int64] {
	base := tboost.NewRBTreeMap[int64]().Base()
	if tr != nil {
		base = &timedBase{base: base, tr: tr}
	}
	return tboost.NewMapOf[int64, int64](base)
}

func openShard(sp *spec, dir string, tr *tracer) (*shard, error) {
	sh := &shard{accts: newMap(tr), stock: newMap(tr), orders: newMap(tr), prices: tboost.NewOrderedSetOf[int64]()}
	var cfg tboost.Config
	if tr != nil {
		cfg.Contention = tracedPolicy{tr}
	}
	if sp.durable {
		l, err := tboost.OpenWAL(tboost.WALOptions{Mode: tboost.WALAsync, GroupWindow: walFlushEvery, Dir: dir})
		if err != nil {
			return nil, err
		}
		ic := tboost.Int64Codec
		for _, err := range []error{
			tboost.BindMap(l, "accounts", ic, ic, sh.accts),
			tboost.BindMap(l, "stock", ic, ic, sh.stock),
			tboost.BindMap(l, "orders", ic, ic, sh.orders),
			tboost.BindOrderedSet(l, "prices", ic, sh.prices),
		} {
			if err != nil {
				l.Close()
				return nil, fmt.Errorf("bind %s: %w", dir, err)
			}
		}
		res, err := l.Recover()
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("recover %s: %w", dir, err)
		}
		sh.log, sh.replayed = l, res.Replayed
		if tr != nil {
			cfg.Durability = newTimedSink(tr, l.Overloaded, l.Commit, l.Prepare, l.Decide)
		} else {
			cfg.Durability = l
		}
	}
	sh.sys = tboost.NewSystem(cfg)
	return sh, nil
}

// world is everything one set-up builds: the Systems, their objects and
// logs, and the coordinator that spans them.
type world struct {
	sp     *spec
	dir    string
	tr     *tracer
	shards []*shard
	coord  *tboost.Coordinator
}

// openWorld builds the Systems over dir, recovering whatever logs it holds.
func openWorld(sp *spec, dir string, tr *tracer) (*world, error) {
	w := &world{sp: sp, dir: dir, tr: tr}
	var parts []tboost.Participant
	for i := 0; i < sp.systems; i++ {
		sh, err := openShard(sp, filepath.Join(dir, fmt.Sprintf("sys%d", i)), tr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.shards = append(w.shards, sh)
		parts = append(parts, tboost.Participant{Sys: sh.sys, Log: sh.log})
	}
	if sp.systems > 1 {
		var opts tboost.CoordinatorOptions
		if sp.durable {
			opts.Dir = filepath.Join(dir, "coord")
		}
		c, err := tboost.NewCoordinator(parts, opts)
		if err != nil {
			w.close()
			return nil, err
		}
		w.coord = c
		if err := c.Recover(); err != nil {
			w.close()
			return nil, fmt.Errorf("coordinator recover: %w", err)
		}
	}
	return w, nil
}

func (w *world) close() error {
	var first error
	if w.coord != nil {
		first = w.coord.Close()
	}
	for _, sh := range w.shards {
		if sh.log != nil {
			if err := sh.log.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// setUp builds a world in the empty directory dir and fills it through
// transactions, 64 keys per transaction, as a user's loader would.
func setUp(sp *spec, dir string, tr *tracer, seed uint64) (*world, error) {
	w, err := openWorld(sp, dir, tr)
	if err != nil {
		return nil, err
	}
	const batch = 64
	for _, sh := range w.shards {
		for lo := 0; lo < sp.accounts; lo += batch {
			err := sh.sys.Atomic(func(tx *tboost.Tx) error {
				for k := lo; k < min(lo+batch, sp.accounts); k++ {
					sh.accts.Put(tx, int64(k), sp.initBal)
				}
				return nil
			})
			if err != nil {
				w.close()
				return nil, fmt.Errorf("populate accounts: %w", err)
			}
		}
		prices := make([]int64, sp.items)
		for i := range prices {
			prices[i] = listPrice(sp, seed, int64(i))
		}
		for lo := 0; lo < sp.items; lo += batch {
			err := sh.sys.Atomic(func(tx *tboost.Tx) error {
				for i := lo; i < min(lo+batch, sp.items); i++ {
					sh.stock.Put(tx, int64(i), prices[i]<<32|initQty)
					sh.prices.Add(tx, pkey(prices[i], int64(i)))
					if sp.tally {
						sh.orders.Put(tx, int64(i), 0)
					}
				}
				return nil
			})
			if err != nil {
				w.close()
				return nil, fmt.Errorf("populate warehouse: %w", err)
			}
		}
		// The first snapshot switches on version recording; pay it here,
		// not in the first measured reader.
		if err := sh.sys.AtomicRO(func(tx *tboost.Tx) error { sh.accts.Get(tx, 0); return nil }); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// op is one generated operation. The generator draws every argument; the
// client only executes it.
type op struct {
	kind       int
	sys        int // System of a transfer, order or restock; debited System of a span
	a, b, c, d int64
	amt        int64
	lo, hi     int64
	item, qty  int64
	price, alt int64 // a restock's new price and the item's other price
}

// gen is one client's operation stream, derived from the run's seed and the
// client's index alone.
type gen struct {
	r    *rand.Rand
	sp   *spec
	seed uint64
}

func newGen(seed uint64, client int, sp *spec) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, uint64(client)+1)), sp: sp, seed: seed}
}

func (g *gen) distinct(n int, out ...*int64) {
	for i, p := range out {
	again:
		v := g.r.Int64N(int64(n))
		for _, q := range out[:i] {
			if *q == v {
				goto again
			}
		}
		*p = v
	}
}

func (g *gen) next(o *op) {
	sp := g.sp
	x := g.r.IntN(100)
	o.kind = 0
	for x >= sp.mix[o.kind] {
		x -= sp.mix[o.kind]
		o.kind++
	}
	o.sys = g.r.IntN(sp.systems)
	o.amt = 1 + g.r.Int64N(100)
	switch o.kind {
	case opTransfer:
		if sp.work > 0 {
			g.distinct(sp.accounts, &o.a, &o.b, &o.c, &o.d)
		} else {
			g.distinct(sp.accounts, &o.a, &o.b)
		}
	case opOrder:
		o.lo = 1 + g.r.Int64N(sp.maxPrice-sp.window)
		o.hi = o.lo + sp.window
		o.qty = 1 + g.r.Int64N(5)
	case opRestock:
		o.item = g.r.Int64N(int64(sp.items))
		o.qty = 1 + g.r.Int64N(20)
		o.price = listPrice(sp, g.seed, o.item)
		o.alt = salePrice(o.price)
		if g.r.IntN(2) == 0 {
			o.price, o.alt = o.alt, o.price
		}
	case opSpan:
		o.a = g.r.Int64N(int64(sp.accounts))
		o.b = g.r.Int64N(int64(sp.accounts))
	case opRead:
		o.a = g.r.Int64N(int64(sp.accounts))
		o.item = g.r.Int64N(int64(sp.items))
	}
}
