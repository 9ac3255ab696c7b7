package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"tboost"
)

// state is a world's full business state, read after the clients stopped.
type state struct {
	accts     [][]int64         // [System][account] balance
	stock     [][]int64         // [System][item] price<<32 | quantity
	prices    [][]int64         // [System] price-index keys, ascending
	orders    []map[int64]int64 // [System] acknowledged order ids found there; with tally, item -> sold
	ordersLen []int             // [System] entries in the orders map
}

func baseLen(b tboost.BaseMapOf[int64, int64]) int {
	if l, ok := b.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}

// capture reads the state through one snapshot per System, plus the price
// index from its base (range queries are not versioned, and the world is
// quiescent).
func capture(w *world, clients []*client) (*state, error) {
	sp := w.sp
	st := &state{}
	for si, sh := range w.shards {
		accts := make([]int64, sp.accounts)
		stock := make([]int64, sp.items)
		orders := map[int64]int64{}
		err := sh.sys.AtomicRO(func(tx *tboost.Tx) error {
			for k := range accts {
				v, ok := sh.accts.Get(tx, int64(k))
				if !ok {
					return fmt.Errorf("system %d: account %d missing", si, k)
				}
				accts[k] = v
			}
			for i := range stock {
				v, ok := sh.stock.Get(tx, int64(i))
				if !ok {
					return fmt.Errorf("system %d: item %d missing", si, i)
				}
				stock[i] = v
			}
			if sp.tally {
				for i := range stock {
					v, ok := sh.orders.Get(tx, int64(i))
					if !ok {
						return fmt.Errorf("system %d: sold count of item %d missing", si, i)
					}
					orders[int64(i)] = v
				}
				return nil
			}
			for _, c := range clients {
				for q := int64(0); q < c.orders; q++ {
					id := int64(c.id+1)<<orderBits | q
					if v, ok := sh.orders.Get(tx, id); ok {
						orders[id] = v
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var keys []int64
		sh.prices.Base().AscendRange(math.MinInt64, math.MaxInt64, func(k int64) bool {
			keys = append(keys, k)
			return true
		})
		st.accts = append(st.accts, accts)
		st.stock = append(st.stock, stock)
		st.prices = append(st.prices, keys)
		st.orders = append(st.orders, orders)
		st.ordersLen = append(st.ordersLen, baseLen(sh.orders.Base()))
	}
	return st, nil
}

// audit checks the business invariants of a captured state against what the
// clients were told had committed. It returns one line per violation.
func audit(sp *spec, st *state, clients []*client) []string {
	var bad []string
	var total int64
	for _, a := range st.accts {
		for _, v := range a {
			total += v
		}
	}
	if want := int64(sp.systems*sp.accounts) * sp.initBal; total != want {
		bad = append(bad, fmt.Sprintf("bank total %d, want %d", total, want))
	}

	// ordered is what the orders maps say was taken from each item.
	ordered := make([][]int64, sp.systems)
	for s := range ordered {
		ordered[s] = make([]int64, sp.items)
		if sp.tally {
			for i := range ordered[s] {
				ordered[s][i] = st.orders[s][int64(i)]
			}
		}
	}
	var acked int64
	for _, c := range clients {
		acked += c.orders
		for q := int64(0); q < c.orders && !sp.tally; q++ {
			id := int64(c.id+1)<<orderBits | q
			found := 0
			for s, m := range st.orders {
				if v, ok := m[id]; ok {
					found++
					ordered[s][v>>32] += v & 0xffffffff
				}
			}
			if found != 1 {
				bad = append(bad, fmt.Sprintf("acknowledged order %#x found in %d systems", id, found))
			}
		}
		if c.badReads > 0 {
			bad = append(bad, fmt.Sprintf("client %d: %d snapshot reads saw a wrong bank total", c.id, c.badReads))
		}
	}
	var stored int64
	for _, n := range st.ordersLen {
		stored += int64(n)
	}
	if sp.tally {
		acked = int64(sp.systems * sp.items)
	}
	if stored != acked {
		bad = append(bad, fmt.Sprintf("orders maps hold %d entries, want %d", stored, acked))
	}

	for s := range st.stock {
		var want []int64
		for i, v := range st.stock[s] {
			var restocked, sold int64
			for _, c := range clients {
				restocked += c.restocked[s][i]
				sold += c.sold[s][i]
			}
			if sold != ordered[s][i] {
				bad = append(bad, fmt.Sprintf("system %d item %d: orders maps say %d sold, clients were told %d", s, i, ordered[s][i], sold))
			}
			if got, exp := v&0xffffffff, initQty+restocked-ordered[s][i]; got != exp {
				bad = append(bad, fmt.Sprintf("system %d item %d: stock %d, books say %d", s, i, got, exp))
			}
			want = append(want, pkey(v>>32, int64(i)))
		}
		slices.Sort(want)
		if !slices.Equal(want, st.prices[s]) {
			bad = append(bad, fmt.Sprintf("system %d: price index does not match the stock prices", s))
		}
	}
	return bad
}

// diff reports the first difference between two states, or "".
func diff(a, b *state) string {
	for s := range a.accts {
		if i := firstDiff(a.accts[s], b.accts[s]); i >= 0 {
			return fmt.Sprintf("system %d account %d", s, i)
		}
		if i := firstDiff(a.stock[s], b.stock[s]); i >= 0 {
			return fmt.Sprintf("system %d stock of item %d", s, i)
		}
		if !slices.Equal(a.prices[s], b.prices[s]) {
			return fmt.Sprintf("system %d price index", s)
		}
		if a.ordersLen[s] != b.ordersLen[s] || len(a.orders[s]) != len(b.orders[s]) {
			return fmt.Sprintf("system %d order count", s)
		}
		for id, v := range a.orders[s] {
			if w, ok := b.orders[s][id]; !ok || w != v {
				return fmt.Sprintf("system %d order %#x", s, id)
			}
		}
	}
	return ""
}

func firstDiff(a, b []int64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// readerViolations checks that snapshot readers stayed on the lock-free
// versioned path.
func readerViolations(w *world) []string {
	var bad []string
	for i, sh := range w.shards {
		st := sh.sys.Stats()
		if st.ROAborts != 0 || st.ReaderLockDemands != 0 {
			bad = append(bad, fmt.Sprintf("system %d: %d snapshot aborts, %d reader lock demands", i, st.ROAborts, st.ReaderLockDemands))
		}
	}
	return bad
}

// recovery closes a durable world, reopens every log into fresh objects and
// checks that the recovered state equals the live one. The time covers
// opening and recovering every participant log and the coordinator.
type recovery struct {
	dur      time.Duration
	replayed int
	bad      []string
}

func recoverAndCompare(w *world, live *state, clients []*client) (*recovery, error) {
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close before recovery: %w", err)
	}
	t0 := time.Now()
	r, err := openWorld(w.sp, w.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	rec := &recovery{dur: time.Since(t0)}
	defer r.close()
	for _, sh := range r.shards {
		rec.replayed += sh.replayed
	}
	got, err := capture(r, clients)
	if err != nil {
		rec.bad = append(rec.bad, "recovered state: "+err.Error())
		return rec, nil
	}
	if d := diff(live, got); d != "" {
		rec.bad = append(rec.bad, "recovered state differs from the live state at "+d)
	}
	return rec, nil
}
