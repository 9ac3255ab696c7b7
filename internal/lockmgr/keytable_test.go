package lockmgr

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzLockMapEquivalence checks LockMap against a plain map reference on
// byte programs. The first byte picks the stripe count (1–8); each later
// byte is an instruction:
//
//	0x00–0x7f  Get(b): a key from a small space, revisited often
//	0x80–0xbf  Get of the next two bytes as a 16-bit key
//	0xc0–0xef  install the next (b&0x3f)*8 fresh keys in a burst
//	0xf0–0xff  check Len
//
// Every Get must return the reference's lock for a key seen before, a lock
// no other key has for a fresh one, and Len must be exact. The bursts push
// a stripe through several doublings. A string-keyed map runs the same
// program to cover a key type with pointers.
func FuzzLockMapEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 0xf0})
	f.Add([]byte{0, 0xc8, 0xf0, 3, 0x81, 0x00, 0x03, 0xff, 0xc1, 3})
	f.Add([]byte{7, 0xff, 0xd0, 0x42, 0xe0, 0x42, 0xf7, 0x80, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		stripes := int(prog[0]&7) + 1
		im := NewLockMapStripes[int64](stripes)
		sm := NewLockMapStripes[string](stripes)
		iref := map[int64]*OwnerLock{}
		sref := map[string]*OwnerLock{}
		owners := map[*OwnerLock]string{} // lock → key, across both maps
		fresh := int64(1 << 20)           // burst keys, disjoint from 16-bit keys
		get := func(k int64) {
			sk := strconv.FormatInt(k, 10)
			for _, c := range []struct {
				got  *OwnerLock
				want *OwnerLock
				name string
				set  func(*OwnerLock)
			}{
				{im.Get(k), iref[k], "int64 " + sk, func(l *OwnerLock) { iref[k] = l }},
				{sm.Get(sk), sref[sk], "string " + sk, func(l *OwnerLock) { sref[sk] = l }},
			} {
				if c.want != nil {
					if c.got != c.want {
						t.Fatalf("stripes=%d key %s: Get returned a different lock", stripes, c.name)
					}
					continue
				}
				if c.got == nil {
					t.Fatalf("stripes=%d key %s: Get returned nil", stripes, c.name)
				}
				if other, ok := owners[c.got]; ok {
					t.Fatalf("stripes=%d key %s: got the lock of key %s", stripes, c.name, other)
				}
				owners[c.got] = c.name
				c.set(c.got)
			}
		}
		for pc := 1; pc < len(prog); pc++ {
			b := prog[pc]
			switch {
			case b < 0x80:
				get(int64(b))
			case b < 0xc0:
				if pc+2 >= len(prog) {
					return
				}
				get(int64(prog[pc+1])<<8 | int64(prog[pc+2]))
				pc += 2
			case b < 0xf0:
				for i := 0; i < int(b&0x3f)*8; i++ {
					get(fresh)
					fresh++
				}
			default:
				if n := im.Len(); n != len(iref) {
					t.Fatalf("stripes=%d: int64 Len = %d, want %d", stripes, n, len(iref))
				}
				if n := sm.Len(); n != len(sref) {
					t.Fatalf("stripes=%d: string Len = %d, want %d", stripes, n, len(sref))
				}
			}
		}
	})
}

// Installers and readers race on one stripe while its table doubles about
// ten times. Installers walk the keys in opposite directions so they
// collide on installs; readers re-Get keys already published and must see
// the published lock, whether they probe a replaced table or the current
// one. Run it under -race.
func TestLockMapInstallRaceAcrossGrows(t *testing.T) {
	const keys, installers, readers = 4096, 4, 2
	m := NewLockMapStripes[int64](1)
	var published [keys]atomic.Pointer[OwnerLock]
	var done atomic.Bool
	var wg, rwg sync.WaitGroup
	start := make(chan struct{}) // installers start together, so installs collide
	for g := 0; g < installers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < keys; i++ {
				k := i
				if g%2 == 1 {
					k = keys - 1 - i
				}
				l := m.Get(int64(k))
				if !published[k].CompareAndSwap(nil, l) && published[k].Load() != l {
					t.Errorf("key %d: installers got different locks", k)
					return
				}
			}
		}(g)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			k := r
			for !done.Load() {
				k = (k*5 + 1) % keys
				if want := published[k].Load(); want != nil && m.Get(int64(k)) != want {
					t.Errorf("key %d: reader got a different lock", k)
					return
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
}

// Installing N keys into one stripe must cost O(N) bytes. A copy-on-write
// table copies the stripe for every install and allocates O(N²) — gigabytes
// at this size.
func TestLockMapInstallAllocsLinear(t *testing.T) {
	const n = 1 << 14
	const budget = 512 // bytes per key: node + lock channel + table share ≈ 200
	m := NewLockMapStripes[int64](1)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for k := int64(0); k < n; k++ {
		m.Get(k)
	}
	runtime.ReadMemStats(&m1)
	if d := m1.TotalAlloc - m0.TotalAlloc; d > budget*n {
		t.Fatalf("installing %d keys allocated %d bytes (%d/key), want <= %d/key", n, d, d/n, budget)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
}

// BenchmarkLockMapInstall fills default-striped maps with fresh keys, up to
// the sub-benchmark's size before starting a new map; one op is one install.
// ns/op should be about the same at both sizes.
func BenchmarkLockMapInstall(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int64
	}{{"keys=1k", 1 << 10}, {"keys=64k", 1 << 16}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			m := NewLockMap[int64]()
			var k int64
			for b.Loop() {
				if k == size.n {
					m, k = NewLockMap[int64](), 0
				}
				m.Get(k)
				k++
			}
		})
	}
}
