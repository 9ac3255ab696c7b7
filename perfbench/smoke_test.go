package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke makes a short, scaled-down pass over every workload, untraced and
// traced, and asserts that each run passes every correctness check and emits
// exactly the metrics BENCHMARK.json names, with their units. It also runs
// durable-mix, which BENCHMARK.json leaves out (see NOTES.md), so its
// recovery check stays covered.
func TestSmoke(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range b.Workloads {
		if _, ok := specs[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which perfbench does not have", wl.Name)
		}
	}
	names := slices.Sorted(maps.Keys(specs))
	for _, wl := range names {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			name := wl + "/untraced"
			if trace {
				want, name = b.PerLayer, wl+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: wl, seed: 7, dur: 300 * time.Millisecond, trace: trace,
					workdir: filepath.Join(t.TempDir(), "work"), scale: 16, setups: 2}
				var out bytes.Buffer
				res, err := execute(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name)
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for n := range res.Metrics {
					if !slices.Contains(names, n) {
						t.Errorf("metric %s emitted but not in BENCHMARK.json", n)
					}
				}
				if trace && !strings.Contains(out.String(), "sampled spans written to") {
					t.Error("traced run wrote no span dump")
				}
			})
		}
	}
}

// TestGeneratorDeterministic pins that a client's operations depend on the
// seed and the client index alone.
func TestGeneratorDeterministic(t *testing.T) {
	sp := specs["durable-mix"]
	stream := func(seed uint64, client int) []op {
		g := newGen(seed, client, &sp)
		ops := make([]op, 1000)
		for i := range ops {
			g.next(&ops[i])
		}
		return ops
	}
	if !slices.Equal(stream(3, 0), stream(3, 0)) {
		t.Fatal("same seed and client gave different operations")
	}
	if slices.Equal(stream(3, 0), stream(4, 0)) || slices.Equal(stream(3, 0), stream(3, 1)) {
		t.Fatal("different seeds or clients gave the same operations")
	}
	var kinds [nOps]int
	for _, o := range stream(3, 0) {
		kinds[o.kind]++
	}
	for k, n := range kinds {
		if (sp.mix[k] > 0) != (n > 0) {
			t.Errorf("kind %d drawn %d times with mix weight %d", k, n, sp.mix[k])
		}
	}
}

// TestAuditCatchesViolations breaks a consistent state in each way the audit
// and the recovery comparison must notice, for orders under fresh ids and
// for orders tallied per item.
func TestAuditCatchesViolations(t *testing.T) {
	for _, name := range []string{"memory-mix", "hot-contended"} {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, scale: 16}
			sp := cfg.spec()
			w, err := setUp(sp, t.TempDir(), nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			clients := []*client{newClient(0, w, 1, nil, &bytes.Buffer{})}
			c, last := clients[0], sp.systems-1
			c.cur = op{kind: opOrder, sys: last, lo: 1, hi: sp.maxPrice, qty: 2}
			if err := w.shards[last].sys.Atomic(c.bodies[opOrder]); err != nil {
				t.Fatal(err)
			}
			c.acknowledge()
			good, err := capture(w, clients)
			if err != nil {
				t.Fatal(err)
			}
			if bad := audit(sp, good, clients); len(bad) != 0 {
				t.Fatalf("consistent state flagged: %v", bad)
			}
			breaks := map[string]func(s *state){
				"balance": func(s *state) { s.accts[0][5]++ },
				"stock":   func(s *state) { s.stock[last][3]-- },
				"price":   func(s *state) { s.prices[0][0]++ },
				"order":   func(s *state) { clear(s.orders[last]) },
			}
			for what, brk := range breaks {
				st, err := capture(w, clients)
				if err != nil {
					t.Fatal(err)
				}
				brk(st)
				if len(audit(sp, st, clients)) == 0 {
					t.Errorf("audit missed a broken %s", what)
				}
				if diff(good, st) == "" {
					t.Errorf("state comparison missed a broken %s", what)
				}
			}
			c.badReads = 1
			if len(audit(sp, good, clients)) == 0 {
				t.Error("audit missed a snapshot that saw a wrong total")
			}
		})
	}
}

// TestSliceTails pins that a workload with sliceTails reports the median of
// its whole seconds' p99s, so one slow second does not move it, and that a
// window shorter than 3 s falls back to the whole window's p99.
func TestSliceTails(t *testing.T) {
	p := &phase{secs: 5.5, m: meas{secs: make([][nClasses]hist, 6)}}
	for i, ns := range []int64{1000, 1000, 9000, 1000, 1000, 9000} {
		for range 100 {
			p.m.secs[i][cRead].add(ns)
			p.m.lat[cRead].add(ns)
		}
	}
	if got := p.p99Us(cRead); got < 0.99 || got > 1.02 {
		t.Errorf("sliced read p99 %.3f us, want about 1 us", got)
	}
	if got := p.latUs(cRead, 0.99); got < 8 {
		t.Errorf("whole-window read p99 %.3f us, want about 9 us", got)
	}
	p.secs = 2.5
	if got := p.p99Us(cRead); got < 8 {
		t.Errorf("a 2.5 s window gave p99 %.3f us, want the whole window's, about 9 us", got)
	}
}
