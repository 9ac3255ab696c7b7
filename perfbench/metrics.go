package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
)

// statDelta is the part of the Systems' transaction counters the per-layer
// metrics use, summed over Systems.
type statDelta struct {
	starts, commits, aborts             int64
	roStarts, roCommits, roAborts       int64
	readerLockDemands                   int64
	abortsLockTimeout, abortsValidation int64
	admissionRejects                    int64
}

func sumStats(w *world) statDelta {
	var d statDelta
	for _, sh := range w.shards {
		s := sh.sys.Stats()
		d.starts += s.Starts
		d.commits += s.Commits
		d.aborts += s.Aborts
		d.roStarts += s.ROStarts
		d.roCommits += s.ROCommits
		d.roAborts += s.ROAborts
		d.readerLockDemands += s.ReaderLockDemands
		d.abortsLockTimeout += s.AbortsLockTimeout
		d.abortsValidation += s.AbortsValidation
		d.admissionRejects += s.AdmissionRejects
	}
	return d
}

func (a statDelta) sub(b statDelta) statDelta {
	return statDelta{
		a.starts - b.starts, a.commits - b.commits, a.aborts - b.aborts,
		a.roStarts - b.roStarts, a.roCommits - b.roCommits, a.roAborts - b.roAborts,
		a.readerLockDemands - b.readerLockDemands,
		a.abortsLockTimeout - b.abortsLockTimeout, a.abortsValidation - b.abortsValidation,
		a.admissionRejects - b.admissionRejects,
	}
}

// walDelta sums the participant logs' counters.
type walDelta struct{ commits, batches, fsyncs uint64 }

func sumWAL(w *world) walDelta {
	var d walDelta
	for _, sh := range w.shards {
		if sh.log != nil {
			s := sh.log.Stats()
			d.commits += s.Commits
			d.batches += s.Batches
			d.fsyncs += s.Fsyncs
		}
	}
	return d
}

func (a walDelta) sub(b walDelta) walDelta {
	return walDelta{a.commits - b.commits, a.batches - b.batches, a.fsyncs - b.fsyncs}
}

// dirBytes is the size of every file under dir: the logs' on-disk footprint.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio[A, B int64 | uint64 | float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (p *phase) writers() int64 { return p.m.ok[cWrite] + p.m.ok[cSpan] }

func (p *phase) rate(cls ...int) float64 {
	var n int64
	for _, c := range cls {
		n += p.m.ok[c]
	}
	return float64(n) / p.secs
}

func (p *phase) latUs(cls int, q float64) float64 { return p.m.lat[cls].quantile(q) / 1e3 }

// secP99s is the p99 of each whole second of the window, or nil when the
// workload does not slice its tails or the window is shorter than 3 s.
func (p *phase) secP99s(cls int) []float64 {
	var v []float64
	for i := 0; i < min(int(p.secs), len(p.m.secs)); i++ {
		if h := &p.m.secs[i][cls]; h.n > 0 {
			v = append(v, h.quantile(0.99))
		}
	}
	if len(v) < 3 {
		return nil
	}
	return v
}

// p99Us is the end-to-end p99: the median of the per-second p99s when the
// workload slices its tails, else the whole window's.
func (p *phase) p99Us(cls int) float64 {
	if v := p.secP99s(cls); v != nil {
		return median(v) / 1e3
	}
	return p.latUs(cls, 0.99)
}

// endToEnd fills the metrics a user sees, from an untraced run: rates and
// p50s over the whole window, p99s as p99Us takes them, and the heap of the
// loaded world.
func endToEnd(out map[string]metric, p *phase, setups []float64) {
	out["commit_tx_per_s"] = metric{p.rate(cWrite, cSpan), "1/s"}
	out["write_p50_us"] = metric{p.latUs(cWrite, 0.50), "us"}
	out["write_p99_us"] = metric{p.p99Us(cWrite), "us"}
	out["read_tx_per_s"] = metric{p.rate(cRead), "1/s"}
	out["read_p50_us"] = metric{p.latUs(cRead, 0.50), "us"}
	out["read_p99_us"] = metric{p.p99Us(cRead), "us"}
	out["setup_s"] = metric{median(setups), "s"}
	out["heap_mb"] = metric{p.heapSetupMB, "MiB"}
}

// layerSelf is each layer's self time, summed over the measured requests:
// its spans' time minus the part of it its child spans cover.
type layerSelf struct {
	names []string
	ns    []int64
}

func (l *layerSelf) add(name string, ns int64) {
	l.names = append(l.names, name)
	l.ns = append(l.ns, ns)
}

// selfTimes splits the traced window's request time by layer. Requests on
// one goroutine nest exactly; a span's two branches run in parallel, so the
// returned overlap is the branch time that ran beside other branch time.
func selfTimes(p *phase) (l layerSelf, root, overlap int64) {
	m := &p.m
	var all acc
	for c := range m.tot {
		all.merge(&m.tot[c])
		root += m.tot[c][kRoot].ns
	}
	W, R := &m.tot[cWrite], &m.tot[cRead]
	calls := all[kGet].ns + all[kGetRO].ns + all[kPut].ns + all[kPutFresh].ns + all[kRange].ns + all[kPoint].ns
	l.add("stm", W[kRoot].ns-W[kBody].ns-W[kCommit].ns-W[kBarrier].ns)
	l.add("txncoord", m.spanSelf)
	l.add("mvcc", R[kRoot].ns-R[kBody].ns)
	l.add("app", all[kBody].ns-calls)
	l.add("core+boost", calls-p.baseNs-all[kWait].ns)
	l.add("rbtree", p.baseNs)
	l.add("lockmgr", all[kWait].ns)
	l.add("wal", all[kCommit].ns+all[kBarrier].ns+all[kPrepare].ns+all[kDecide].ns+all[kDecideWait].ns)
	return l, root, m.overlap
}

// selfTolerancePct is how far the layers' self times may sum from the
// measured request time. They nest by construction, so what is left is
// calls that straddle the window's edges.
const selfTolerancePct = 1.0

// perLayer fills the traced run's metrics. un is the untraced run made just
// before on a fresh world, tr the traced one.
func perLayer(out map[string]metric, un, tr *phase, log io.Writer) error {
	m := &tr.m
	var all acc
	for c := range m.tot {
		all.merge(&m.tot[c])
	}
	W, R := &m.tot[cWrite], &m.tot[cRead]
	commits := tr.writers()
	perK := func(n int64) float64 { return 1000 * ratio(n, commits) }
	avg := func(k key) float64 { return ratio(all[k].ns, all[k].n) }
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	st := tr.stats

	set("stm.attempts_per_commit", "count", ratio(st.starts-st.roStarts, st.commits-st.roCommits))
	set("stm.abort_ratio", "ratio", ratio(st.aborts-st.roAborts, st.starts-st.roStarts))
	set("stm.aborts_lock_timeout_per_ktx", "count", perK(st.abortsLockTimeout))
	set("stm.aborts_validation_per_ktx", "count", perK(st.abortsValidation))
	set("stm.wasted_body_us", "us", ratio(all[kWasted].ns, commits)/1e3)
	set("stm.self_us", "us", ratio(W[kRoot].ns-W[kBody].ns-W[kCommit].ns-W[kBarrier].ns, W[kRoot].n)/1e3)
	set("stm.admission_rejects_per_ktx", "count", perK(st.admissionRejects))
	set("stm.ro_aborts", "count", float64(un.stats.roAborts+st.roAborts))
	set("stm.reader_lock_demands", "count", float64(un.stats.readerLockDemands+st.readerLockDemands))

	mapCalls := all[kGet].n + all[kGetRO].n + all[kPut].n + all[kPutFresh].n
	mapNs := all[kGet].ns + all[kGetRO].ns + all[kPut].ns + all[kPutFresh].ns
	set("core.map_get_ns", "ns", avg(kGet))
	set("core.map_put_ns", "ns", avg(kPut))
	set("core.map_put_fresh_ns", "ns", avg(kPutFresh))
	set("core.ordered_range_ns", "ns", avg(kRange))
	set("boost.self_ns", "ns", ratio(mapNs-tr.baseNs-all[kWaitMap].ns, mapCalls))

	set("lockmgr.blocked_per_ktx", "count", perK(all[kWait].n))
	set("lockmgr.wait_us_p50", "us", m.waits.quantile(0.50)/1e3)
	set("lockmgr.wait_us_p99", "us", m.waits.quantile(0.99)/1e3)
	set("lockmgr.wait_share", "ratio", ratio(W[kWait].ns, W[kRoot].ns))

	set("rbtree.op_ns", "ns", ratio(tr.baseNs, tr.baseN))

	set("mvcc.ro_self_us", "us", ratio(R[kRoot].ns-R[kBody].ns, R[kRoot].n)/1e3)
	set("mvcc.read_ns", "ns", avg(kGetRO))

	set("wal.append_us", "us", avg(kCommit)/1e3)
	set("wal.barrier_us", "us", avg(kBarrier)/1e3)
	set("wal.fsyncs_per_commit", "count", ratio(tr.wal.fsyncs, tr.wal.commits))
	set("wal.commits_per_batch", "count", ratio(tr.wal.commits, tr.wal.batches))
	set("wal.prepare_us", "us", avg(kPrepare)/1e3)
	set("wal.decide_us", "us", ratio(all[kDecide].ns+all[kDecideWait].ns, all[kDecide].n)/1e3)
	set("wal.bytes_per_commit", "B", ratio(tr.walB, tr.wal.commits))
	replayed, recoverUs := 0.0, 0.0
	if tr.rec != nil {
		replayed = ratio(int64(tr.rec.replayed), tr.committed)
	}
	if un.rec != nil {
		recoverUs = ratio(un.rec.dur.Microseconds(), un.committed)
	}
	set("wal.replayed_records_per_tx", "count", replayed)

	spans := m.ok[cSpan]
	set("txncoord.span_self_us", "us", ratio(m.spanSelf, m.tot[cSpan][kRoot].n)/1e3)
	set("txncoord.fsyncs_per_span", "count", ratio(int64(all[kPrepare].n+all[kDecideWait].n)+int64(tr.coordFs), spans))

	reqs := un.writers() + un.m.ok[cRead]
	set("go.allocs_per_tx", "count", ratio(un.mallocs, reqs))
	set("go.gc_pause_ms", "ms", float64(un.pauseNs)/1e6)

	// End-to-end figures that only some workloads have, from the untraced run.
	set("span_p50_us", "us", un.latUs(cSpan, 0.50))
	set("span_p99_us", "us", un.latUs(cSpan, 0.99))
	set("recover_us_per_tx", "us", recoverUs)
	set("failed_ratio", "ratio", ratio(un.failed(), un.attempted()))

	// Tracing overhead: traced minus untraced, on the same workload and seed.
	set("trace.write_p50_overhead_us", "us", tr.latUs(cWrite, 0.5)-un.latUs(cWrite, 0.5))
	set("trace.read_p50_overhead_us", "us", tr.latUs(cRead, 0.5)-un.latUs(cRead, 0.5))
	set("trace.commit_tx_per_s_overhead", "1/s", un.rate(cWrite, cSpan)-tr.rate(cWrite, cSpan))

	l, root, overlap := selfTimes(tr)
	var sum int64
	var negative []string
	fmt.Fprintf(log, "  self time per request by layer (traced window, %d requests):\n", all[kRoot].n)
	for i, name := range l.names {
		sum += l.ns[i]
		fmt.Fprintf(log, "    %-11s %10.2f us  %5.1f%%\n", name, ratio(l.ns[i], all[kRoot].n)/1e3, 100*ratio(l.ns[i], root))
		if l.ns[i] < 0 {
			negative = append(negative, name)
		}
	}
	errPct := 100 * ratio(sum-overlap-root, root)
	fmt.Fprintf(log, "    parallel span-branch overlap %.2f us/request; self-time sum - overlap - latency = %+.3f%% (tolerance %.1f%%)\n",
		ratio(overlap, all[kRoot].n)/1e3, errPct, selfTolerancePct)
	set("trace.self_sum_error_pct", "%", errPct)
	if len(negative) > 0 {
		return fmt.Errorf("negative self time in %v", negative)
	}
	if math.Abs(errPct) > selfTolerancePct {
		return fmt.Errorf("layer self times sum to %.3f%% off the measured latency (tolerance %.1f%%)", errPct, selfTolerancePct)
	}
	return nil
}
