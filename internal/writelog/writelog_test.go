package writelog

import (
	"bytes"
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func lineOf(page, off uint64) uint64 { return page*mem.LinesPerPage + off }

func TestAppendLookup(t *testing.T) {
	l := New(128, false)
	if l.Contains(lineOf(3, 7)) {
		t.Fatal("empty log should not contain anything")
	}
	l.Append(lineOf(3, 7), nil)
	if _, ok := l.Lookup(lineOf(3, 7)); !ok {
		t.Fatal("appended line not found")
	}
	if _, ok := l.Lookup(lineOf(3, 8)); ok {
		t.Fatal("phantom hit for different offset")
	}
	if _, ok := l.Lookup(lineOf(4, 7)); ok {
		t.Fatal("phantom hit for different page")
	}
	if l.Len() != 1 || l.LiveLines() != 1 || l.PageCount() != 1 {
		t.Fatalf("len=%d live=%d pages=%d", l.Len(), l.LiveLines(), l.PageCount())
	}
}

func TestUpdateSupersedes(t *testing.T) {
	l := New(128, true)
	d1 := bytes.Repeat([]byte{1}, 64)
	d2 := bytes.Repeat([]byte{2}, 64)
	l.Append(lineOf(1, 5), d1)
	l.Append(lineOf(1, 5), d2)
	got, ok := l.Lookup(lineOf(1, 5))
	if !ok || got[0] != 2 {
		t.Fatal("index does not point at newest entry")
	}
	if l.Len() != 2 {
		t.Fatal("superseded entry should still occupy log space")
	}
	if l.LiveLines() != 1 {
		t.Fatal("only one live line expected")
	}
	if l.Stats().Updates != 1 {
		t.Fatal("update not counted")
	}
}

func TestFullAndPanicOnOverflow(t *testing.T) {
	l := New(4, false)
	for i := 0; i < 4; i++ {
		l.Append(lineOf(0, uint64(i)), nil)
	}
	if !l.Full() {
		t.Fatal("log should be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("append to full log should panic")
		}
	}()
	l.Append(lineOf(0, 63), nil)
}

func TestPagesAndPageLines(t *testing.T) {
	l := New(256, false)
	l.Append(lineOf(10, 0), nil)
	l.Append(lineOf(10, 5), nil)
	l.Append(lineOf(20, 63), nil)
	pages := l.Pages()
	if len(pages) != 2 {
		t.Fatalf("pages = %v", pages)
	}
	seen := map[uint64]bool{}
	for _, p := range pages {
		seen[p] = true
	}
	if !seen[10] || !seen[20] {
		t.Fatalf("pages = %v", pages)
	}
	lines := l.PageLines(10)
	if len(lines) != 2 {
		t.Fatalf("lines of page 10 = %+v", lines)
	}
	offs := map[uint]bool{}
	for _, le := range lines {
		offs[le.Offset] = true
	}
	if !offs[0] || !offs[5] {
		t.Fatalf("offsets = %v", offs)
	}
	if l.PageLines(99) != nil {
		t.Fatal("lines of absent page should be nil")
	}
}

func TestInvalidatePage(t *testing.T) {
	l := New(256, false)
	l.Append(lineOf(1, 1), nil)
	l.Append(lineOf(2, 2), nil)
	l.InvalidatePage(1)
	if l.Contains(lineOf(1, 1)) {
		t.Fatal("invalidated page still indexed")
	}
	if !l.Contains(lineOf(2, 2)) {
		t.Fatal("other page lost")
	}
	if l.PageCount() != 1 {
		t.Fatalf("PageCount = %d", l.PageCount())
	}
	// Tombstone must not break later inserts of the same page.
	l.Append(lineOf(1, 3), nil)
	if !l.Contains(lineOf(1, 3)) {
		t.Fatal("re-insert after invalidate failed")
	}
}

func TestReset(t *testing.T) {
	l := New(64, false)
	for i := uint64(0); i < 64; i++ {
		l.Append(lineOf(i, i%64), nil)
	}
	l.Reset()
	if l.Len() != 0 || l.PageCount() != 0 || l.Full() {
		t.Fatal("reset did not clear the log")
	}
	if l.Stats().Resets != 1 {
		t.Fatal("reset not counted")
	}
	l.Append(lineOf(7, 7), nil)
	if !l.Contains(lineOf(7, 7)) {
		t.Fatal("log unusable after reset")
	}
}

func TestIndexBytesGrowsAndBounded(t *testing.T) {
	l := New(1024, false)
	base := l.IndexBytes()
	if base <= 0 {
		t.Fatal("index should have nonzero footprint")
	}
	// One dirty line per page: worst case for the index.
	for i := 0; i < 1024; i++ {
		l.Append(lineOf(uint64(i), 0), nil)
	}
	ib := l.IndexBytes()
	if ib <= base {
		t.Fatal("index footprint did not grow")
	}
	// Paper bound: ~16 B/first-level entry + 16 B/second-level table per
	// page, with hash-table headroom (load factor 0.75 plus power-of-two
	// sizing) at most ~4x that.
	if ib > 1024*32*4 {
		t.Fatalf("index footprint %d exceeds worst-case bound", ib)
	}
	if l.Stats().PeakIndex < ib {
		t.Fatal("peak index not tracked")
	}
}

// scanIndexBytes is the full-scan form of IndexBytes: 16 B per
// first-level slot plus 4 B per second-level slot of every live page.
func scanIndexBytes(l *Log) int {
	b := len(l.first) * 16
	for i := range l.first {
		if l.first[i].state == 1 {
			b += len(l.first[i].second.slots) * 4
		}
	}
	return b
}

// Property: the running IndexBytes equals a full scan of the tables after
// every Append, InvalidatePage and Reset, and PeakIndex is the running
// maximum of that scan over the appends (the log samples its footprint
// when an append may have grown it). Pages outnumber the initial
// first-level table and take up to 64 lines each, so both levels grow.
func TestIndexBytesMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		l := New(1024, false)
		peak := 0
		grewFirst, grewSecond := false, false
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 1 || l.Full():
				l.Reset()
			case r < 8:
				l.InvalidatePage(rng.Uint64n(96))
			default:
				page := rng.Uint64n(96)
				before := 0
				if idx, ok := l.findFirst(page); ok {
					before = len(l.first[idx].second.slots)
				}
				firstBefore := len(l.first)
				l.Append(lineOf(page, rng.Uint64n(64)), nil)
				idx, _ := l.findFirst(page)
				grewFirst = grewFirst || len(l.first) > firstBefore
				grewSecond = grewSecond || (before > 0 && len(l.first[idx].second.slots) > before)
				peak = max(peak, scanIndexBytes(l))
			}
			want := scanIndexBytes(l)
			if l.IndexBytes() != want || l.Stats().PeakIndex != peak {
				t.Logf("op %d: IndexBytes=%d scan=%d PeakIndex=%d peak=%d",
					op, l.IndexBytes(), want, l.Stats().PeakIndex, peak)
				return false
			}
		}
		if !grewFirst || !grewSecond {
			t.Logf("growth not exercised: first=%v second=%v", grewFirst, grewSecond)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseSecondLevelResize(t *testing.T) {
	l := New(256, false)
	for off := uint64(0); off < 64; off++ {
		l.Append(lineOf(5, off), nil)
	}
	lines := l.PageLines(5)
	if len(lines) != 64 {
		t.Fatalf("dense page lines = %d, want 64", len(lines))
	}
	seen := map[uint]bool{}
	for _, le := range lines {
		if seen[le.Offset] {
			t.Fatalf("duplicate offset %d after resizes", le.Offset)
		}
		seen[le.Offset] = true
	}
}

func TestCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 1 << 27} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", bad)
				}
			}()
			New(bad, false)
		}()
	}
	if New(64, false).CapacityBytes() != 64*64 {
		t.Fatal("CapacityBytes")
	}
}

// Property: the log agrees with a model map on containment and newest data
// for random append/lookup/invalidate sequences, and LiveLines matches the
// model size.
func TestAgainstModelMap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		l := New(4096, true)
		model := map[uint64]byte{}
		for op := 0; op < 3000 && !l.Full(); op++ {
			switch rng.Intn(10) {
			case 0: // invalidate a random page
				page := rng.Uint64n(32)
				l.InvalidatePage(page)
				for k := range model {
					if k>>6 == page {
						delete(model, k)
					}
				}
			default:
				line := lineOf(rng.Uint64n(32), rng.Uint64n(64))
				v := byte(rng.Uint64())
				buf := bytes.Repeat([]byte{v}, 64)
				l.Append(line, buf)
				model[line] = v
			}
			// Random probe.
			probe := lineOf(rng.Uint64n(32), rng.Uint64n(64))
			data, ok := l.Lookup(probe)
			wantV, wantOK := model[probe]
			if ok != wantOK {
				return false
			}
			if ok && data[0] != wantV {
				return false
			}
		}
		return l.LiveLines() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: PageLines returns exactly the model's lines for each page.
func TestPageLinesMatchModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		l := New(2048, false)
		model := map[uint64]map[uint]bool{}
		for op := 0; op < 1500; op++ {
			page := rng.Uint64n(16)
			off := rng.Uint64n(64)
			l.Append(lineOf(page, off), nil)
			if model[page] == nil {
				model[page] = map[uint]bool{}
			}
			model[page][uint(off)] = true
		}
		for page, want := range model {
			got := l.PageLines(page)
			if len(got) != len(want) {
				return false
			}
			for _, le := range got {
				if !want[le.Offset] {
					return false
				}
			}
		}
		return len(l.Pages()) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	l := New(1<<20, false)
	rng := trace.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Full() {
			l.Reset()
		}
		l.Append(rng.Uint64n(1<<18), nil)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	l := New(1<<16, false)
	for i := 0; i < 1<<15; i++ {
		l.Append(uint64(i*64%(1<<18)), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lookup(uint64(i * 64 % (1 << 18)))
	}
}
