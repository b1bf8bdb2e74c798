package ftl

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"skybyte/internal/flash"
)

// Preconditioning is a pure function of the geometry, the FTL config, the
// two ratios and the seed, so each distinct flash state is computed once
// per process and later FTLs restore it by copying. The memo keeps
// immutable snapshots until their bytes would pass memoBudget; a state
// that does not fit (PaperConfig's) is recomputed every time.

// memoBudget caps the snapshot bytes the memo keeps resident. It is a
// variable only so tests can exercise the cap.
var memoBudget uint64 = 64 << 20

type memoKey struct {
	geo           flash.Geometry
	cfg           Config
	fill, rewrite float64
	seed          uint64
}

// snapshot is a preconditioned state. p2l is not stored: restore rebuilds
// it by inverting l2p.
type snapshot struct {
	l2p      []uint32 // prefix holding every mapped lpa; the rest is unmapped
	blocks   []blockMeta
	free     [][]uint32
	open     []int64
	nextChan int
}

var memo = struct {
	sync.Mutex
	snaps map[memoKey]*snapshot
	bytes uint64
}{snaps: map[memoKey]*snapshot{}}

// ResetMemo drops every memoized preconditioned state (tests and
// benchmarks only).
func ResetMemo() {
	memo.Lock()
	defer memo.Unlock()
	memo.snaps = map[memoKey]*snapshot{}
	memo.bytes = 0
}

// Precondition pre-maps fillRatio of the logical space sequentially and
// then rewrites rewriteRatio of those pages at random, creating scattered
// invalid pages so GC triggers early in a run (paper §VI-A: "we
// precondition the SSD to ensure garbage collections will be triggered").
// Metadata-only: no flash timing is charged. f must be fresh from New;
// fillRatio must lie in [0,1] and rewriteRatio be finite and >= 0.
func (f *FTL) Precondition(fillRatio, rewriteRatio float64, seed uint64) {
	if !(fillRatio >= 0 && fillRatio <= 1) || !(rewriteRatio >= 0) || math.IsInf(rewriteRatio, 1) {
		panic(fmt.Sprintf("ftl: precondition fill %v, rewrite %v: fill must be in [0,1] and rewrite finite and >= 0",
			fillRatio, rewriteRatio))
	}
	key := memoKey{geo: f.geo, cfg: f.cfg, fill: fillRatio, rewrite: rewriteRatio, seed: seed}
	if key != key { // a NaN in the config: the key could never be found again
		panic(fmt.Sprintf("ftl: precondition with NaN in FTL config %+v", f.cfg))
	}
	if !f.fresh() {
		panic("ftl: Precondition needs an FTL fresh from New")
	}

	memo.Lock()
	s := memo.snaps[key]
	memo.Unlock()
	if s != nil {
		f.restore(s)
		return
	}
	// Goroutines that miss on one key at once each compute it; the first
	// to finish stores its snapshot and the others' are dropped.
	f.precondition(fillRatio, rewriteRatio, seed)
	n := uint64(fillRatio * float64(f.logicalPages))
	size := f.snapshotBytes(n)
	memo.Lock()
	if _, ok := memo.snaps[key]; !ok && memo.bytes+size <= memoBudget {
		memo.snaps[key] = f.snapshot(n)
		memo.bytes += size
	}
	memo.Unlock()
}

// fresh reports whether f is still in the state New leaves it in.
func (f *FTL) fresh() bool {
	if f.stats != (Stats{}) || f.nextChan != 0 {
		return false
	}
	for ch, ob := range f.open {
		if ob != -1 || len(f.freeBlocks[ch]) != f.blocksPerChannel() {
			return false
		}
	}
	return true
}

// snapshotBytes is the size of a snapshot whose mapped lpas are all below
// n: its l2p prefix, block metadata, free stacks and open blocks.
func (f *FTL) snapshotBytes(n uint64) uint64 {
	return 4*n + uint64(len(f.blocks))*uint64(unsafe.Sizeof(blockMeta{})+4) + 8*uint64(len(f.open))
}

// snapshot copies f's preconditioned state; every mapped lpa is below n.
func (f *FTL) snapshot(n uint64) *snapshot {
	s := &snapshot{
		l2p:      slices.Clone(f.l2p[:n]),
		blocks:   slices.Clone(f.blocks),
		free:     make([][]uint32, len(f.freeBlocks)),
		open:     slices.Clone(f.open),
		nextChan: f.nextChan,
	}
	for ch, stack := range f.freeBlocks {
		s.free[ch] = slices.Clone(stack)
	}
	return s
}

// restore copies s into a fresh f, whose own backing arrays receive every
// element so later writes never reach the shared snapshot.
func (f *FTL) restore(s *snapshot) {
	copy(f.l2p, s.l2p)
	for lpa, p := range s.l2p {
		if p != unmapped {
			f.p2l[p] = uint32(lpa)
		}
	}
	copy(f.blocks, s.blocks)
	for ch, stack := range s.free {
		f.freeBlocks[ch] = append(f.freeBlocks[ch][:0], stack...)
	}
	copy(f.open, s.open)
	f.nextChan = s.nextChan
}
