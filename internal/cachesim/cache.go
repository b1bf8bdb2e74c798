// Package cachesim implements the tag-only set-associative caches used for
// the CPU hierarchy (per-core L1/L2 and the shared LLC of Table II).
//
// Caches are write-back with configurable allocation policy. Stores use
// "write-validate" (no fetch on store miss) by default, mirroring the
// paper's model in which CXL writes never block the pipeline (§III-A: "as
// writes are buffered in the write log, they do not need to trigger context
// switch"); see DESIGN.md §1 for the discussion.
package cachesim

import (
	"fmt"

	"skybyte/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int // defaults to mem.LineBytes
}

// Victim describes a line evicted to make room for a fill.
type Victim struct {
	Addr  mem.Addr // line address
	Dirty bool
	Valid bool
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	DirtyEvs  uint64
}

// MissRate returns misses/(hits+misses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Accesses returns the total lookup count (hits + misses) — the
// denominator a windowed hit-ratio probe differences between samples.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// way is one cache way. A set's ways are adjacent in Cache.ways, so a
// probe walks one contiguous 16-byte-stride run of memory.
type way struct {
	tag   uint64
	lru   uint32 // recency stamp
	valid bool   // tag is meaningful only when set
	dirty bool
}

// Cache is a set-associative, true-LRU, tag-only cache.
type Cache struct {
	cfg      Config
	sets     int
	assoc    int
	setMask  uint64
	shift    uint
	setShift uint // log2(sets), precomputed off the probe path

	ways  []way // sets*assoc, set-major
	clock uint32

	Stats Stats
}

// New builds a cache. It panics, naming the cache, unless LineBytes is a
// power of two, SizeBytes is a positive multiple of Ways*LineBytes, and
// the resulting set count is a power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = mem.LineBytes
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cachesim: %s: ways must be positive", cfg.Name))
	}
	if cfg.LineBytes < 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	setBytes := cfg.Ways * cfg.LineBytes
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%setBytes != 0 {
		panic(fmt.Sprintf("cachesim: %s: size %d B not a positive multiple of %d ways x %d B lines",
			cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes))
	}
	sets := cfg.SizeBytes / setBytes
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: set count %d not a power of two", cfg.Name, sets))
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		assoc:    cfg.Ways,
		setMask:  uint64(sets - 1),
		shift:    uint(log2(cfg.LineBytes)),
		setShift: uint(log2(sets)),
		ways:     make([]way, sets*cfg.Ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.assoc }

// set returns the ways of a's set and a's tag.
func (c *Cache) set(a mem.Addr) (set int, ways []way, tag uint64) {
	ln := uint64(a) >> c.shift
	set = int(ln & c.setMask)
	base := set * c.assoc
	return set, c.ways[base : base+c.assoc], ln >> c.setShift
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// find returns the way holding tag, or nil.
func find(ways []way, tag uint64) *way {
	for i := range ways {
		if w := &ways[i]; w.valid && w.tag == tag {
			return w
		}
	}
	return nil
}

// Lookup probes the cache without changing replacement state or stats.
func (c *Cache) Lookup(a mem.Addr) bool {
	_, ways, tag := c.set(a)
	return find(ways, tag) != nil
}

// Access performs a demand access. If the line is present it is touched
// (and dirtied for writes) and hit=true. If absent, hit=false and the line
// is NOT allocated — callers decide whether and when to Fill (after the next
// level responds).
func (c *Cache) Access(a mem.Addr, write bool) (hit bool) {
	if c.Update(a, write) {
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Update touches the line if present (refreshing recency and optionally
// dirtying it) without recording demand statistics — used when victims
// cascade down the hierarchy, which must not perturb miss-rate accounting.
func (c *Cache) Update(a mem.Addr, dirty bool) bool {
	_, ways, tag := c.set(a)
	w := find(ways, tag)
	if w == nil {
		return false
	}
	c.clock++
	w.lru = c.clock
	if dirty {
		w.dirty = true
	}
	return true
}

// Fill allocates the line (after a miss was serviced), marking it dirty if
// the triggering access was a write. It returns the victim line, which is
// valid if an occupied way was evicted.
//
// One pass over the set finds the line if it is already present (a raced
// fill, which only updates it), the first invalid way, and the least
// recently used way, the last of equal stamps winning. The victim is the
// first invalid way if there is one, else the least recently used way.
func (c *Cache) Fill(a mem.Addr, dirty bool) Victim {
	set, ways, tag := c.set(a)
	invalid, oldest := -1, 0
	oldestStamp := ^uint32(0)
	for i := range ways {
		w := &ways[i]
		if !w.valid {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if w.tag == tag {
			c.clock++
			w.lru = c.clock
			if dirty {
				w.dirty = true
			}
			return Victim{}
		}
		if w.lru <= oldestStamp {
			oldestStamp = w.lru
			oldest = i
		}
	}
	if invalid >= 0 {
		oldest = invalid
	}
	w := &ways[oldest]
	var v Victim
	if w.valid {
		v = Victim{Addr: c.lineAddr(set, w.tag), Dirty: w.dirty, Valid: true}
		c.Stats.Evictions++
		if w.dirty {
			c.Stats.DirtyEvs++
		}
	}
	c.clock++
	*w = way{tag: tag, lru: c.clock, valid: true, dirty: dirty}
	return v
}

func (c *Cache) lineAddr(set int, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setShift|uint64(set))<<c.shift) | 0
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(a mem.Addr) (wasPresent, wasDirty bool) {
	_, ways, tag := c.set(a)
	w := find(ways, tag)
	if w == nil {
		return false, false
	}
	w.valid = false
	return true, w.dirty
}

// FlushAll invalidates every line, invoking victim for each valid line (so
// dirty data can be written down the hierarchy). Used to model the cache
// pollution side effect of a context switch.
func (c *Cache) FlushAll(victim func(Victim)) {
	for i := range c.ways {
		w := &c.ways[i]
		if !w.valid {
			continue
		}
		if victim != nil {
			victim(Victim{Addr: c.lineAddr(i/c.assoc, w.tag), Dirty: w.dirty, Valid: true})
		}
		w.valid = false
		w.dirty = false
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid {
			n++
		}
	}
	return n
}
