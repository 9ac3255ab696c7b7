// Command perfbench is the repository's benchmark: closed-loop bank and
// warehouse workloads driven through the public tboost facade. It prints
// human-readable detail and, as its last line, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures once untraced and once traced and reports per-layer metrics, the
// tracing overhead, and writes the sampled spans next to its work directory.
// See NOTES.md for the workloads and what each metric is meant to move.
//
//	go build -o perfbench . && ./perfbench --workload memory-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	workdir  string
	scale    int // divides the bank and warehouse sizes; 1 is the benchmark
	setups   int // untraced set-ups per run; setup_s is their median
}

// nClients is the number of closed-loop client goroutines in every workload.
const nClients = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1, setups: 3}
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	secs := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for logs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := specs[cfg.workload]; !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg.dur = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func (cfg config) spec() *spec {
	sp := specs[cfg.workload]
	if cfg.scale > 1 && sp.accounts > 1024 {
		sp.accounts /= cfg.scale
		sp.items = max(sp.items/cfg.scale, 16)
	}
	return &sp
}

// execute runs one benchmark invocation and assembles its result.
func execute(cfg config, out io.Writer) (*result, error) {
	// A pointer-free ballast sets a floor under the GC's heap goal. Without
	// it the small worlds (0.1 MiB live after set-up) collect every few MiB
	// allocated, and whether collection runs more or less than 1% of the
	// time decides each run's p99. Its pages are never touched, so it costs
	// no memory; heapMiB leaves it out.
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	sp := cfg.spec()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir := fmt.Sprintf("%s/%s", cfg.workdir, sp.name)
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "workload %s seed %d: %d clients, closed loop, %v window, GOMAXPROCS %d\n",
		sp.name, cfg.seed, nClients, cfg.dur, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "  %d systems x %d accounts, %d items; mix transfer/order/restock/span/read %v%%\n",
		sp.systems, sp.accounts, sp.items, sp.mix)
	if sp.durable {
		fmt.Fprintf(out, "  WAL: Async mode, GroupWindow %v (commits never wait on fsync), durable coordinator decision log\n", walFlushEvery)
	}

	// The untraced run of a traced invocation only feeds the overhead and
	// the untraced per-layer figures, so it sets up once.
	n := 1
	if !cfg.trace {
		n = cfg.setups
	}
	un, setups, err := runPhase(cfg, sp, dir, nil, n, !cfg.trace, out)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: un.attempted(), Failed: un.failed(), Metrics: map[string]metric{}}
	bad := un.bad
	if !cfg.trace {
		endToEnd(res.Metrics, un, setups)
	} else {
		traced, _, err := runPhase(cfg, sp, dir, &tracer{}, 1, false, out)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted()
		res.Failed += traced.failed()
		bad = append(bad, traced.bad...)
		if err := perLayer(res.Metrics, un, traced, out); err != nil {
			bad = append(bad, err.Error())
		}
		path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", cfg.workdir, sp.name, cfg.seed)
		if err := writeDumps(path, traced); err != nil {
			return nil, err
		}
		fmt.Fprintln(out, "  sampled spans written to", path)
	}
	for _, b := range bad {
		fmt.Fprintln(out, "CHECK FAILED:", b)
	}
	res.Correct = len(bad) == 0
	if res.Correct {
		checks := "  checks passed: bank conserved, warehouse books balance, snapshot readers lock- and abort-free"
		if sp.durable {
			checks += ", recovered state equals live state"
		}
		fmt.Fprintln(out, checks)
	}
	return res, nil
}

// phase is one measured run on one world.
type phase struct {
	secs      float64
	m         meas
	committed int64 // writers and spans committed since set-up, measured or not

	stats   statDelta
	wal     walDelta
	coordFs uint64 // decision-log fsyncs in the window
	walB    int64  // bytes the logs grew by in the window
	mallocs uint64
	pauseNs uint64

	heapSetupMB float64 // after set-up: heap_mb
	heapWarmMB  float64 // after the warm operations
	heapEndMB   float64 // after the window
	baseNs      int64
	baseN       int64
	rec         *recovery
	bad         []string
}

func (p *phase) attempted() int64 {
	var n int64
	for _, a := range p.m.att {
		n += a
	}
	return n
}

func (p *phase) failed() int64 {
	var n int64
	for _, f := range p.m.failed {
		n += f
	}
	return n
}

// setupBudget bounds the wall time spent repeating set-up: small worlds set
// up in microseconds, so they repeat until the budget is spent and their
// median is steady; large ones stop at the minimum count.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 101
)

// runPhase sets up a world at least n times (keeping the last; with repeat,
// again until setupBudget is spent), drives it for the window, stops the
// clients and runs every correctness check.
func runPhase(cfg config, sp *spec, dir string, tr *tracer, n int, repeat bool, out io.Writer) (*phase, []float64, error) {
	var w *world
	var setups []float64
	start := time.Now()
	for i := 0; i < n || (repeat && i < maxSetups && time.Since(start) < setupBudget); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, err
			}
			w = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = setUp(sp, dir, tr, cfg.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()
	runtime.GC()
	ph := &phase{heapSetupMB: heapMiB()}

	// The clients first run a fixed number of operations each and wait.
	// The window opens when the clients are released.
	clients := make([]*client, nClients)
	clog := &lockedWriter{w: out}
	for i := range clients {
		clients[i] = newClient(i, w, cfg.seed, tr, clog)
		if sp.sliceTails {
			clients[i].m.secs = make([][nClasses]hist, int(cfg.dur/time.Second)+1)
		}
	}
	var ready, wg sync.WaitGroup
	var in, stop atomic.Bool
	release := make(chan struct{})
	warm := sp.warm / cfg.scale
	ready.Add(nClients)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(warm, &ready, release, &in, &stop)
		}()
	}
	ready.Wait()
	runtime.GC()
	ph.heapWarmMB = heapMiB()

	s0, l0, b0 := sumStats(w), sumWAL(w), dirBytes(dir)
	var c0 uint64
	if w.coord != nil {
		c0 = w.coord.LogStats().Fsyncs
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.on.Store(true)
	}
	in.Store(true)
	t0 := time.Now()
	close(release)
	time.Sleep(cfg.dur)
	in.Store(false)
	ph.secs = time.Since(t0).Seconds()
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.ReadMemStats(&m1)
	ph.stats = sumStats(w).sub(s0)
	ph.wal = sumWAL(w).sub(l0)
	ph.walB = dirBytes(dir) - b0
	if w.coord != nil {
		ph.coordFs = w.coord.LogStats().Fsyncs - c0
	}
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	stop.Store(true)
	wg.Wait()

	runtime.GC()
	ph.heapEndMB = heapMiB()
	if tr != nil {
		ph.baseNs, ph.baseN = tr.baseNs.Load(), tr.baseN.Load()
	}
	for _, c := range clients {
		ph.m.merge(&c.m)
		ph.committed += c.committed
	}

	ph.bad = readerViolations(w)
	live, err := capture(w, clients)
	if err != nil {
		ph.bad = append(ph.bad, "audit read: "+err.Error())
		return ph, setups, nil
	}
	ph.bad = append(ph.bad, audit(sp, live, clients)...)
	if sp.durable {
		closed = true
		rec, err := recoverAndCompare(w, live, clients)
		if err != nil {
			return nil, nil, err
		}
		ph.rec = rec
		ph.bad = append(ph.bad, rec.bad...)
	}
	report(out, tr != nil, ph, setups)
	return ph, setups, nil
}

func (m *meas) merge(o *meas) {
	for c := 0; c < nClasses; c++ {
		m.att[c] += o.att[c]
		m.ok[c] += o.ok[c]
		m.declined[c] += o.declined[c]
		m.failed[c] += o.failed[c]
		m.lat[c].merge(&o.lat[c])
		m.tot[c].merge(&o.tot[c])
	}
	m.waits.merge(&o.waits)
	m.spanSelf += o.spanSelf
	m.overlap += o.overlap
	m.dumps = append(m.dumps, o.dumps...)
	if m.secs == nil && o.secs != nil {
		m.secs = make([][nClasses]hist, len(o.secs))
	}
	for i := range o.secs {
		for c := range o.secs[i] {
			m.secs[i][c].merge(&o.secs[i][c])
		}
	}
}

// lockedWriter lets the clients report failures to one writer.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

const ballastBytes = 64 << 20

// heapMiB is the Go heap in use, less the ballast execute holds.
func heapMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-ballastBytes) / (1 << 20)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func report(out io.Writer, traced bool, ph *phase, setups []float64) {
	name := "untraced"
	if traced {
		name = "traced"
	}
	fmt.Fprintf(out, "%s run: %.3fs window, %d set-ups, median %.6f s (min %.6f, max %.6f), heap after set-up %.3f MiB, after warm-up %.3f MiB, after run %.3f MiB\n",
		name, ph.secs, len(setups), median(setups), slices.Min(setups), slices.Max(setups), ph.heapSetupMB, ph.heapWarmMB, ph.heapEndMB)
	for c := 0; c < nClasses; c++ {
		m := &ph.m
		if m.att[c] == 0 {
			continue
		}
		h := &m.lat[c]
		fmt.Fprintf(out, "  %-5s attempted %d ok %d declined %d failed %d | %.0f/s p50 %.1fus p99 %.1fus (n=%d, %d beyond p99)",
			classNames[c], m.att[c], m.ok[c], m.declined[c], m.failed[c], float64(m.ok[c])/ph.secs,
			h.quantile(0.5)/1e3, h.quantile(0.99)/1e3, h.n, h.n/100)
		if sec := ph.secP99s(c); sec != nil {
			fmt.Fprintf(out, ", median per-second p99 %.1fus (min %.1f, max %.1f)", median(sec)/1e3, slices.Min(sec)/1e3, slices.Max(sec)/1e3)
		}
		fmt.Fprintln(out)
	}
	if ph.rec != nil {
		fmt.Fprintf(out, "  recovery: %v for %d committed tx, %d records replayed\n", ph.rec.dur, ph.committed, ph.rec.replayed)
	}
}

func writeDumps(path string, ph *phase) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range ph.m.dumps {
		if err := enc.Encode(&ph.m.dumps[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
