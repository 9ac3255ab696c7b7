package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"tboost/internal/core"
	"tboost/internal/hashset"
	"tboost/internal/lockmgr"
	"tboost/internal/skiplist"
	"tboost/internal/stm"
)

// Microbenchmark sweep behind `make bench-json` / `boostbench -experiment
// benchjson`. It measures the hot paths the runtime optimizes — transaction
// lifecycle and boosted set operations — at several goroutine counts, in two
// variants run back to back in the same process:
//
//   - "legacy": Config.LegacyHotPath (fresh, always-mutexed Tx per attempt)
//     — the transaction lifecycle before the hot-path overhaul, kept
//     callable so this harness can record that baseline in the same run it
//     records the fast path. (BENCH_PR2.json's legacy column also reflects
//     the mutex-guarded LockMap reads of that time, since removed.)
//   - "fastpath": the production configuration.
//
// The workloads are deterministic: keys come from a fixed multiplicative
// hash of the worker index and iteration counter, not from a seeded PRNG,
// so two runs on the same machine issue the identical operation sequence.

// MicroResult is one cell of the sweep.
type MicroResult struct {
	Name        string  `json:"name"`
	Variant     string  `json:"variant"` // "legacy" or "fastpath"
	Goroutines  int     `json:"goroutines"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// MicroReport is the full sweep, serialized to BENCH_PR2.json.
type MicroReport struct {
	GeneratedBy string `json:"generated_by"`
	NumCPU      int    `json:"num_cpu"`
	Goroutines  []int  `json:"goroutines"`
	// SingleThreadSpeedup maps each workload to fastpath ops/sec divided
	// by legacy ops/sec at one goroutine: the per-call overhead reduction,
	// with baseline and optimized paths measured in the same run.
	SingleThreadSpeedup map[string]float64 `json:"single_thread_speedup"`
	Results             []MicroResult      `json:"results"`
}

// microCase builds one workload. make returns the per-operation function for
// a fresh system under cfg; each (variant, goroutine-count) cell gets fresh
// state so cells are independent.
type microCase struct {
	name string
	make func(cfg stm.Config, goroutines int) func(worker, i int)
}

// microKey spreads (worker, i) over [0, keyRange) with a multiplicative
// hash. Deterministic: the sweep's "fixed seed".
func microKey(worker, i int, keyRange int64) int64 {
	h := uint64(worker*1_000_003+i) * 2654435761
	return int64(h % uint64(keyRange))
}

// paddedInt64 keeps per-worker mutable cells on separate cache lines.
type paddedInt64 struct {
	v int64
	_ [56]byte
}

// microPopulate leaves the set holding the even keys of [0, keyRange) —
// via add-all-then-remove-odds, so every key's per-key lock is installed
// before measurement and the measured cells are pure steady state.
func microPopulate(sys *stm.System, s *core.Set[int64], keyRange int64) {
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(0); k < keyRange; k++ {
			s.Add(tx, k)
		}
	})
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(1); k < keyRange; k += 2 {
			s.Remove(tx, k)
		}
	})
}

func microCases() []microCase {
	return []microCase{
		{
			// One lock acquisition plus one undo append per transaction:
			// the minimal boosted call footprint. Per-worker locks keep it
			// conflict-free, so it isolates lifecycle overhead.
			name: "tx-lifecycle/logged",
			make: func(cfg stm.Config, goroutines int) func(worker, i int) {
				sys := stm.NewSystem(cfg)
				undo := func() {}
				// Transaction bodies are built once per worker (not per
				// call) so the harness measures the runtime, not its own
				// closure allocations.
				bodies := make([]func(*stm.Tx) error, goroutines)
				for w := range bodies {
					l := lockmgr.NewOwnerLock()
					bodies[w] = func(tx *stm.Tx) error {
						l.Acquire(tx)
						tx.Log(undo)
						return nil
					}
				}
				return func(worker, i int) {
					_ = sys.Atomic(bodies[worker])
				}
			},
		},
		{
			// Read-only boosted op over a hash set with per-key locks:
			// the paper's dominant workload shape (60%+ contains).
			name: "boosted-set/contains",
			make: func(cfg stm.Config, goroutines int) func(worker, i int) {
				sys := stm.NewSystem(cfg)
				s := core.NewKeyedSet[int64](hashset.New[int64]())
				microPopulate(sys, s, 4096)
				keys := make([]paddedInt64, goroutines)
				bodies := make([]func(*stm.Tx) error, goroutines)
				for w := range bodies {
					w := w
					bodies[w] = func(tx *stm.Tx) error {
						s.Contains(tx, keys[w].v)
						return nil
					}
				}
				return func(worker, i int) {
					keys[worker].v = microKey(worker, i, 4096)
					_ = sys.Atomic(bodies[worker])
				}
			},
		},
		{
			// Effective add + effective remove of one key per transaction:
			// the mutation path, where each boosted call logs one inverse.
			name: "boosted-set/addremove",
			make: func(cfg stm.Config, goroutines int) func(worker, i int) {
				sys := stm.NewSystem(cfg)
				s := core.NewKeyedSet[int64](hashset.New[int64]())
				microPopulate(sys, s, 4096)
				keys := make([]paddedInt64, goroutines)
				bodies := make([]func(*stm.Tx) error, goroutines)
				for w := range bodies {
					w := w
					bodies[w] = func(tx *stm.Tx) error {
						s.Add(tx, keys[w].v)
						s.Remove(tx, keys[w].v)
						return nil
					}
				}
				return func(worker, i int) {
					// Odd keys are absent at steady state, so Add then
					// Remove are both effective and leave the key absent.
					keys[worker].v = microKey(worker, i, 2048)*2 + 1
					_ = sys.Atomic(bodies[worker])
				}
			},
		},
		{
			// Mixed ops over the lock-free skip list with per-key locks:
			// the Fig. 10 fast configuration without think time.
			name: "boosted-set/mixed",
			make: func(cfg stm.Config, goroutines int) func(worker, i int) {
				sys := stm.NewSystem(cfg)
				s := core.NewKeyedSet[int64](skiplist.New())
				microPopulate(sys, s, 1024)
				type opState struct {
					k int64
					i int
					_ [48]byte
				}
				states := make([]opState, goroutines)
				bodies := make([]func(*stm.Tx) error, goroutines)
				for w := range bodies {
					w := w
					bodies[w] = func(tx *stm.Tx) error {
						st := &states[w]
						switch st.i % 3 {
						case 0:
							s.Contains(tx, st.k)
						case 1:
							s.Add(tx, st.k)
						default:
							s.Remove(tx, st.k)
						}
						return nil
					}
				}
				return func(worker, i int) {
					states[worker].k = microKey(worker, i, 1024)
					states[worker].i = i
					_ = sys.Atomic(bodies[worker])
				}
			},
		},
	}
}

// runMicroCell measures one (case, variant, goroutines) cell: totalOps
// operations split across the workers, wall-clocked, with the process-wide
// allocation delta attributed per op.
func runMicroCell(c microCase, variant string, goroutines, totalOps int) MicroResult {
	legacy := variant == "legacy"
	cfg := stm.Config{LockTimeout: 100 * time.Millisecond, LegacyHotPath: legacy}

	op := c.make(cfg, goroutines)
	opsPerG := totalOps / goroutines

	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				op(worker, i)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	ops := int64(opsPerG * goroutines)
	return MicroResult{
		Name:        c.name,
		Variant:     variant,
		Goroutines:  goroutines,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// MicroSweep runs every microbenchmark case at each goroutine count, legacy
// variant first, then fast path, and computes the single-thread speedups.
// totalOps is the operation count per cell (split across workers); zero
// selects a default sized to finish the whole sweep in tens of seconds.
func MicroSweep(goroutines []int, totalOps int) MicroReport {
	if len(goroutines) == 0 {
		goroutines = []int{1, 2, 4, 8, 16}
	}
	if totalOps <= 0 {
		totalOps = 100_000
	}
	rep := MicroReport{
		GeneratedBy:         "boostbench -experiment benchjson",
		NumCPU:              runtime.NumCPU(),
		Goroutines:          goroutines,
		SingleThreadSpeedup: map[string]float64{},
	}
	single := map[string]map[string]float64{} // name -> variant -> ops/sec at 1 goroutine
	for _, c := range microCases() {
		for _, variant := range []string{"legacy", "fastpath"} {
			for _, g := range goroutines {
				r := runMicroCell(c, variant, g, totalOps)
				rep.Results = append(rep.Results, r)
				if g == 1 {
					if single[c.name] == nil {
						single[c.name] = map[string]float64{}
					}
					single[c.name][variant] = r.OpsPerSec
				}
			}
		}
	}
	for name, v := range single {
		if v["legacy"] > 0 {
			rep.SingleThreadSpeedup[name] = v["fastpath"] / v["legacy"]
		}
	}
	return rep
}

// WriteJSON serializes the report, indented, to w.
func (r MicroReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintMicro writes the sweep as a table plus the speedup summary.
func PrintMicro(out io.Writer, r MicroReport) {
	fmt.Fprintf(out, "%-24s %-9s %3s %14s %10s %12s\n",
		"workload", "variant", "g", "ops/sec", "ns/op", "allocs/op")
	for _, res := range r.Results {
		fmt.Fprintf(out, "%-24s %-9s %3d %14.0f %10.1f %12.3f\n",
			res.Name, res.Variant, res.Goroutines, res.OpsPerSec, res.NsPerOp, res.AllocsPerOp)
	}
	fmt.Fprintln(out)
	for name, ratio := range r.SingleThreadSpeedup {
		fmt.Fprintf(out, "single-thread speedup %-24s %.2fx\n", name, ratio)
	}
}
