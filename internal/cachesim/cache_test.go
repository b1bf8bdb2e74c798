package cachesim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 8 * 64, Ways: 2}) // 4 sets, 2 ways
}

func TestMissThenFillThenHit(t *testing.T) {
	c := small()
	a := mem.Addr(0x1000)
	if c.Access(a, false) {
		t.Fatal("cold access should miss")
	}
	c.Fill(a, false)
	if !c.Access(a, false) {
		t.Fatal("filled line should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets => set stride 64*4 = 256
	// Three lines mapping to the same set (stride = sets*line = 256).
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Access(a0, false) // a0 most recent, a1 LRU
	v := c.Fill(a2, false)
	if !v.Valid || v.Addr != a1 {
		t.Fatalf("victim = %+v, want a1", v)
	}
	if !c.Lookup(a0) || c.Lookup(a1) || !c.Lookup(a2) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small()
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, true) // dirty
	c.Fill(a1, false)
	c.Access(a1, false)
	v := c.Fill(a2, false)
	if !v.Valid || v.Addr != a0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty a0", v)
	}
	if c.Stats.DirtyEvs != 1 {
		t.Fatal("dirty eviction not counted")
	}
}

func TestWriteDirtiesLine(t *testing.T) {
	c := small()
	a := mem.Addr(64)
	c.Fill(a, false)
	c.Access(a, true)
	_, dirty := c.Invalidate(a)
	if !dirty {
		t.Fatal("write hit should dirty the line")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	a := mem.Addr(128)
	if p, _ := c.Invalidate(a); p {
		t.Fatal("invalidate of absent line")
	}
	c.Fill(a, true)
	p, d := c.Invalidate(a)
	if !p || !d {
		t.Fatal("invalidate of dirty line")
	}
	if c.Lookup(a) {
		t.Fatal("line still present after invalidate")
	}
}

func TestFlushAll(t *testing.T) {
	c := small()
	c.Fill(0, true)
	c.Fill(64, false)
	c.Fill(128, true)
	var dirty int
	c.FlushAll(func(v Victim) {
		if v.Dirty {
			dirty++
		}
	})
	if dirty != 2 {
		t.Fatalf("dirty victims = %d, want 2", dirty)
	}
	if c.Occupancy() != 0 {
		t.Fatal("cache not empty after flush")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := small()
	c.Fill(0, false)
	v := c.Fill(0, true)
	if v.Valid {
		t.Fatal("refill of resident line must not evict")
	}
	_, d := c.Invalidate(0)
	if !d {
		t.Fatal("refill with dirty should mark dirty")
	}
}

func TestPageGranularCache(t *testing.T) {
	c := New(Config{Name: "page", SizeBytes: 16 * mem.PageBytes, Ways: 4, LineBytes: mem.PageBytes})
	p := mem.Addr(0x42000)
	if c.Access(p, false) {
		t.Fatal("cold page access should miss")
	}
	c.Fill(p, false)
	if !c.Access(p+100, false) {
		t.Fatal("any address within the page should hit")
	}
}

// Property: against a positional reference model (per-set ways with
// recency stamps), the cache agrees on hit/miss, on what Invalidate finds,
// on every Fill's victim, and on the way order FlushAll reports lines in,
// for random read, write, invalidate and flush sequences. Invalidations
// leave holes in a set; the reference fills the first invalid way, else
// evicts the least recently used one.
func TestAgainstReferenceModel(t *testing.T) {
	const sets, ways = 4, 4
	f := func(seed uint64) bool {
		c := New(Config{Name: "ref", SizeBytes: sets * ways * 64, Ways: ways})
		type refWay struct {
			addr         mem.Addr
			stamp        int
			valid, dirty bool
		}
		var ref [sets][ways]refWay
		stamp := 0
		rng := trace.NewRNG(seed)
		for op := 0; op < 3000; op++ {
			a := mem.Addr(rng.Uint64n(64)) * 64 // 64 distinct lines
			set := &ref[uint64(a)>>6&(sets-1)]
			var line *refWay
			for i := range set {
				if set[i].valid && set[i].addr == a {
					line = &set[i]
				}
			}
			if rng.Intn(500) == 0 {
				var want, got []Victim
				for s := range ref {
					for w := range ref[s] {
						if rw := &ref[s][w]; rw.valid {
							want = append(want, Victim{Addr: rw.addr, Dirty: rw.dirty, Valid: true})
							*rw = refWay{}
						}
					}
				}
				c.FlushAll(func(v Victim) { got = append(got, v) })
				if !slices.Equal(got, want) {
					t.Logf("op %d: FlushAll victims = %+v, want %+v", op, got, want)
					return false
				}
				continue
			}
			if rng.Intn(8) == 0 {
				present, dirty := c.Invalidate(a)
				if present != (line != nil) || (line != nil && dirty != line.dirty) {
					t.Logf("op %d: Invalidate(%#x) = %v,%v", op, a, present, dirty)
					return false
				}
				if line != nil {
					line.valid = false
				}
				continue
			}
			write := rng.Bool(0.3)
			if hit := c.Access(a, write); hit != (line != nil) {
				t.Logf("op %d: Access(%#x) hit=%v", op, a, hit)
				return false
			}
			stamp++
			if line != nil {
				line.stamp = stamp
				line.dirty = line.dirty || write
				continue
			}
			victim := -1
			for i := range set {
				if !set[i].valid {
					victim = i
					break
				}
			}
			if victim < 0 {
				victim = 0
				for i := range set {
					if set[i].stamp < set[victim].stamp {
						victim = i
					}
				}
			}
			old := set[victim]
			want := Victim{}
			if old.valid {
				want = Victim{Addr: old.addr, Dirty: old.dirty, Valid: true}
			}
			if got := c.Fill(a, write); got != want {
				t.Logf("op %d: Fill(%#x) victim = %+v, want %+v", op, a, got, want)
				return false
			}
			set[victim] = refWay{addr: a, stamp: stamp, valid: true, dirty: write}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and every filled line is
// findable until evicted.
func TestOccupancyBound(t *testing.T) {
	c := New(Config{Name: "cap", SizeBytes: 32 * 64, Ways: 8})
	rng := trace.NewRNG(3)
	for i := 0; i < 10000; i++ {
		a := mem.Addr(rng.Uint64n(1 << 20)).Line()
		if !c.Access(a, rng.Bool(0.3)) {
			c.Fill(a, false)
		}
		if c.Occupancy() > 32 {
			t.Fatal("occupancy exceeded capacity")
		}
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero ways", Config{Name: "z", SizeBytes: 512, Ways: 0}, "z: ways must be positive"},
		{"size below one set", Config{Name: "tiny", SizeBytes: 100, Ways: 8}, "tiny: size 100 B not a positive multiple"},
		{"size not a set multiple", Config{Name: "odd", SizeBytes: 65600, Ways: 16}, "odd: size 65600 B not a positive multiple"},
		{"zero size", Config{Name: "none", SizeBytes: 0, Ways: 4}, "none: size 0 B"},
		{"negative size", Config{Name: "neg", SizeBytes: -1024, Ways: 4}, "neg: size -1024 B"},
		{"line not a power of two", Config{Name: "l96", SizeBytes: 96 * 8, Ways: 8, LineBytes: 96}, "l96: line size 96 not a power of two"},
		{"negative line", Config{Name: "lneg", SizeBytes: 512, Ways: 8, LineBytes: -64}, "lneg: line size -64"},
		{"sets not a power of two", Config{Name: "s3", SizeBytes: 3 * 4 * 64, Ways: 4}, "s3: set count 3 not a power of two"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to contain %q", msg, tc.want)
				}
			}()
			New(tc.cfg)
		})
	}
	for _, cfg := range []Config{
		{Name: "one set", SizeBytes: 8 * 64, Ways: 8},
		{Name: "llc", SizeBytes: 256 * mem.KiB, Ways: 16},
		{Name: "page", SizeBytes: 32 * mem.PageBytes, Ways: 16, LineBytes: mem.PageBytes},
	} {
		c := New(cfg)
		lb := cfg.LineBytes
		if lb == 0 {
			lb = mem.LineBytes
		}
		if got := c.Sets() * c.Ways() * lb; got != cfg.SizeBytes {
			t.Errorf("%s: built %d B, want %d B", cfg.Name, got, cfg.SizeBytes)
		}
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("zero stats miss rate")
	}
	s.Hits, s.Misses = 3, 1
	if s.MissRate() != 0.25 {
		t.Fatal("miss rate")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "bench", SizeBytes: 32 * mem.KiB, Ways: 8})
	c.Fill(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false)
	}
}

func BenchmarkAccessMissFill(b *testing.B) {
	c := New(Config{Name: "bench", SizeBytes: 32 * mem.KiB, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.Addr(i*64) % (1 << 22)
		if !c.Access(a, false) {
			c.Fill(a, false)
		}
	}
}

// BenchmarkFillEvict fills at the ScaledConfig LLC geometry (256 KiB, 16
// ways) over a working set four times the cache, so every fill after the
// first pass scans a full set and evicts.
func BenchmarkFillEvict(b *testing.B) {
	c := New(Config{Name: "llc", SizeBytes: 256 * mem.KiB, Ways: 16})
	const lines = 4 * 256 * mem.KiB / mem.LineBytes
	for i := 0; i < lines; i++ {
		c.Fill(mem.Addr(i*mem.LineBytes), i%3 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(mem.Addr(i%lines*mem.LineBytes), i%3 == 0)
	}
}
