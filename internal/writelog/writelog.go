// Package writelog implements SkyByte's cacheline-granular write log
// (paper §III-B, Figs. 11–13): a circular append buffer of 64 B cachelines
// indexed by a two-level hash table.
//
// The first level maps a logical page address (LPA) to a second-level
// table; each second-level entry packs a 6-bit in-page offset with a 26-bit
// log offset into 4 bytes, exactly as Fig. 12 describes. Second-level
// tables start at 4 entries and double when their load factor exceeds 0.75,
// giving the paper's worst-case index bound (≈32 MB for a 64 MB log) while
// staying small for sparse-write workloads (≈5.6 MB average in the paper).
//
// A rewrite of a logged line appends a fresh entry and repoints the index
// at it; the superseded entry stays in the buffer until compaction drops it
// ("the old updates will be dropped during the compaction"). The log is
// used double-buffered by the controller: one instance fills while the
// other drains.
package writelog

import (
	"fmt"

	"skybyte/internal/mem"
)

const (
	firstInit        = 16   // initial first-level table slots (256 B)
	firstEntryBytes  = 16   // 8 B LPA + 8 B second-level pointer
	secondEntryBytes = 4    // 6-bit in-page offset + 26-bit log offset
	secondInit       = 4    // initial second-level table slots (16 B)
	loadNum, loadDen = 3, 4 // resize when used/slots > 3/4
	emptyEntry       = ^uint32(0)
	offsetShift      = 26
	logOffsetMask    = (1 << offsetShift) - 1
)

// firstEntry is one slot of the first-level table: the 8 B LPA plus the
// 8 B pointer to the page's second-level table (Fig. 12).
type firstEntry struct {
	lpa    uint64
	second *secondTable
	state  uint8 // 0 empty, 1 used, 2 tombstone
}

type secondTable struct {
	slots []uint32
	used  int
}

// LineEntry is one logged cacheline of a page, reported by PageLines.
type LineEntry struct {
	Offset    uint // cacheline index within the page (0..63)
	LogOffset uint32
	Data      []byte // nil unless the log tracks data
}

// Stats counts log activity across the lifetime of the instance.
type Stats struct {
	Appends   uint64 // lines appended
	Updates   uint64 // appends that superseded a logged line
	Lookups   uint64
	Hits      uint64
	Resets    uint64 // compaction cycles completed
	PeakIndex int    // largest index footprint observed, bytes
}

// Log is one write-log buffer with its index.
type Log struct {
	capacity int
	len      int
	lines    []uint64 // per log slot: global line number
	data     []byte   // capacity*64 bytes when tracking data
	first    []firstEntry
	firstLen int // used (non-tombstone) entries
	tombs    int
	index    int // IndexBytes, kept current wherever a table is sized
	stats    Stats
	track    bool
}

// New builds a log holding capacityLines cachelines. trackData enables the
// functional byte payload path used by correctness tests.
func New(capacityLines int, trackData bool) *Log {
	if capacityLines <= 0 {
		panic("writelog: capacity must be positive")
	}
	if capacityLines > 1<<offsetShift {
		panic(fmt.Sprintf("writelog: capacity %d exceeds 26-bit log offset space", capacityLines))
	}
	l := &Log{
		capacity: capacityLines,
		lines:    make([]uint64, capacityLines),
		first:    make([]firstEntry, firstInit),
		index:    firstInit * firstEntryBytes,
		track:    trackData,
	}
	if trackData {
		l.data = make([]byte, capacityLines*mem.LineBytes)
	}
	return l
}

// Capacity returns the log size in cachelines.
func (l *Log) Capacity() int { return l.capacity }

// CapacityBytes returns the log size in bytes.
func (l *Log) CapacityBytes() int { return l.capacity * mem.LineBytes }

// Len returns the number of appended (not yet compacted) entries,
// including superseded duplicates.
func (l *Log) Len() int { return l.len }

// Full reports whether the next append would not fit.
func (l *Log) Full() bool { return l.len >= l.capacity }

// Occupancy returns the filled fraction of the log in [0, 1] — the
// value the write-log telemetry probe samples.
func (l *Log) Occupancy() float64 {
	if l.capacity == 0 {
		return 0
	}
	return float64(l.len) / float64(l.capacity)
}

// Stats returns a copy of the counters.
func (l *Log) Stats() Stats { return l.stats }

// LiveLines returns the number of distinct logged cachelines (index
// entries); Len()-LiveLines() is space wasted on superseded updates that
// compaction will drop.
func (l *Log) LiveLines() int {
	n := 0
	for i := range l.first {
		if l.first[i].state == 1 {
			n += l.first[i].second.used
		}
	}
	return n
}

// PageCount returns the number of distinct pages with logged lines.
func (l *Log) PageCount() int { return l.firstLen }

// IndexBytes returns the current index memory footprint: 16 B per
// first-level slot plus 4 B per second-level slot of every live page
// (Fig. 12 sizes). The count is kept as tables grow, gain or lose pages,
// so reading it costs O(1).
func (l *Log) IndexBytes() int { return l.index }

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// findFirst returns the slot index of lpa, or the insertion slot
// (preferring the first tombstone seen) with found=false.
func (l *Log) findFirst(lpa uint64) (idx int, found bool) {
	mask := uint64(len(l.first) - 1)
	i := hash64(lpa) & mask
	firstTomb := -1
	for {
		e := &l.first[i]
		switch e.state {
		case 0:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case 2:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			if e.lpa == lpa {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (l *Log) growFirst() {
	old := l.first
	l.first = make([]firstEntry, len(old)*2)
	l.index += len(old) * firstEntryBytes
	l.firstLen = 0
	l.tombs = 0
	for i := range old {
		if old[i].state == 1 {
			idx, _ := l.findFirst(old[i].lpa)
			l.first[idx] = firstEntry{lpa: old[i].lpa, second: old[i].second, state: 1}
			l.firstLen++
		}
	}
}

// Append logs one cacheline write. line is the global cacheline number
// (address/64); data, when non-nil and tracking is on, is the 64 B payload.
// It panics if the log is full — the controller must switch buffers first.
func (l *Log) Append(line uint64, data []byte) {
	if l.Full() {
		panic("writelog: append to full log")
	}
	slot := uint32(l.len)
	l.lines[slot] = line
	if l.track && data != nil {
		copy(l.data[int(slot)*mem.LineBytes:], data)
	}
	l.len++
	l.stats.Appends++

	lpa := line >> 6 // page number
	offset := uint32(line & mem.LineInPageMsk)
	idx, found := l.findFirst(lpa)
	if !found {
		if (l.firstLen+l.tombs+1)*loadDen > len(l.first)*loadNum {
			l.growFirst()
			idx, _ = l.findFirst(lpa)
		}
		if l.first[idx].state == 2 {
			l.tombs--
		}
		l.first[idx] = firstEntry{lpa: lpa, second: &secondTable{slots: newSlots(secondInit)}, state: 1}
		l.firstLen++
		l.index += secondInit * secondEntryBytes
	}
	st := l.first[idx].second
	slots := len(st.slots)
	if st.insert(offset, slot) {
		l.stats.Updates++
	}
	l.index += (len(st.slots) - slots) * secondEntryBytes
	if l.index > l.stats.PeakIndex {
		l.stats.PeakIndex = l.index
	}
}

func newSlots(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = emptyEntry
	}
	return s
}

// insert adds or updates the (offset → logOffset) entry, returning whether
// an existing entry was superseded.
func (st *secondTable) insert(offset, logOffset uint32) (updated bool) {
	mask := uint32(len(st.slots) - 1)
	i := offset & mask
	for {
		e := st.slots[i]
		if e == emptyEntry {
			break
		}
		if e>>offsetShift == offset {
			st.slots[i] = offset<<offsetShift | logOffset
			return true
		}
		i = (i + 1) & mask
	}
	if (st.used+1)*loadDen > len(st.slots)*loadNum {
		old := st.slots
		st.slots = newSlots(len(old) * 2)
		st.used = 0
		for _, e := range old {
			if e != emptyEntry {
				st.place(e>>offsetShift, e)
			}
		}
	}
	st.place(offset, offset<<offsetShift|logOffset)
	return false
}

// place inserts an entry known to be absent, without load checks.
func (st *secondTable) place(offset, entry uint32) {
	mask := uint32(len(st.slots) - 1)
	i := offset & mask
	for st.slots[i] != emptyEntry {
		i = (i + 1) & mask
	}
	st.slots[i] = entry
	st.used++
}

// lookup returns the log offset of a page offset.
func (st *secondTable) lookup(offset uint32) (uint32, bool) {
	mask := uint32(len(st.slots) - 1)
	i := offset & mask
	for {
		e := st.slots[i]
		if e == emptyEntry {
			return 0, false
		}
		if e>>offsetShift == offset {
			return e & logOffsetMask, true
		}
		i = (i + 1) & mask
	}
}

// Lookup returns whether line is logged and, with tracking on, its newest
// payload.
func (l *Log) Lookup(line uint64) (data []byte, ok bool) {
	l.stats.Lookups++
	idx, found := l.findFirst(line >> 6)
	if !found {
		return nil, false
	}
	slot, ok := l.first[idx].second.lookup(uint32(line & mem.LineInPageMsk))
	if !ok {
		return nil, false
	}
	l.stats.Hits++
	if l.track {
		off := int(slot) * mem.LineBytes
		return l.data[off : off+mem.LineBytes], true
	}
	return nil, true
}

// Contains reports whether line is logged, without stats side effects.
func (l *Log) Contains(line uint64) bool {
	idx, found := l.findFirst(line >> 6)
	if !found {
		return false
	}
	_, ok := l.first[idx].second.lookup(uint32(line & mem.LineInPageMsk))
	return ok
}

// Pages returns the distinct LPAs with logged lines, in deterministic
// (first-level slot) order — compaction's L1 scan.
func (l *Log) Pages() []uint64 {
	out := make([]uint64, 0, l.firstLen)
	for i := range l.first {
		if l.first[i].state == 1 {
			out = append(out, l.first[i].lpa)
		}
	}
	return out
}

// PageLines returns the newest logged line entries of one page — the L4
// second-level traversal that merges dirty lines during compaction.
func (l *Log) PageLines(lpa uint64) []LineEntry {
	idx, found := l.findFirst(lpa)
	if !found {
		return nil
	}
	st := l.first[idx].second
	out := make([]LineEntry, 0, st.used)
	for _, e := range st.slots {
		if e == emptyEntry {
			continue
		}
		le := LineEntry{Offset: uint(e >> offsetShift), LogOffset: e & logOffsetMask}
		if l.track {
			off := int(le.LogOffset) * mem.LineBytes
			le.Data = l.data[off : off+mem.LineBytes]
		}
		out = append(out, le)
	}
	return out
}

// InvalidatePage voids the index entries of one page (§III-C: after a page
// migrates to the host, "the SSD ... invalidates the write log index by
// setting the corresponding entry as NULL"). The buffer space is reclaimed
// at the next compaction.
func (l *Log) InvalidatePage(lpa uint64) {
	idx, found := l.findFirst(lpa)
	if !found {
		return
	}
	l.index -= len(l.first[idx].second.slots) * secondEntryBytes
	l.first[idx] = firstEntry{state: 2}
	l.firstLen--
	l.tombs++
}

// Reset clears the log for reuse as the fresh half of the double buffer
// ("after compaction, we remove the indexing table and reclaim the memory
// used by the previous log").
func (l *Log) Reset() {
	l.len = 0
	l.first = make([]firstEntry, firstInit)
	l.index = firstInit * firstEntryBytes
	l.firstLen = 0
	l.tombs = 0
	l.stats.Resets++
}
