package ftl

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"skybyte/internal/flash"
	"skybyte/internal/sim"
	"skybyte/internal/trace"
)

var (
	tinyGeo = flash.Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 8}
	// scaledGeo and scaledCfg are system.ScaledConfig's flash and FTL.
	scaledGeo = flash.Geometry{Channels: 16, ChipsPerChan: 4, DiesPerChip: 4, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 256}
	scaledCfg = Config{UsableRatio: 0.75, GCTriggerFree: 0.15, GCReplenishFree: 0.18}
)

func newFTL(geo flash.Geometry, cfg Config) *FTL {
	eng := &sim.Engine{}
	return New(eng, flash.New(eng, geo, flash.TimingULL), cfg)
}

// computed runs the preconditioning algorithm on a fresh FTL, bypassing
// the memo.
func computed(geo flash.Geometry, cfg Config, fill, rewrite float64, seed uint64) *FTL {
	f := newFTL(geo, cfg)
	f.precondition(fill, rewrite, seed)
	return f
}

func memoized(geo flash.Geometry, cfg Config, fill, rewrite float64, seed uint64) *FTL {
	f := newFTL(geo, cfg)
	f.Precondition(fill, rewrite, seed)
	return f
}

// sameState reports the first field in which got's preconditioned state
// differs from want's, or "".
func sameState(got, want *FTL) string {
	switch {
	case !slices.Equal(got.l2p, want.l2p):
		return "l2p"
	case !slices.Equal(got.p2l, want.p2l):
		return "p2l"
	case !slices.Equal(got.blocks, want.blocks):
		return "blocks"
	case !slices.EqualFunc(got.freeBlocks, want.freeBlocks, slices.Equal[[]uint32]):
		return "free stacks"
	case !slices.Equal(got.open, want.open):
		return "open"
	case got.nextChan != want.nextChan:
		return "nextChan"
	case got.stats != want.stats:
		return "stats"
	}
	return ""
}

func memoEntries() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.snaps)
}

// withBudget sets the memo budget for one test and empties the memo
// around it.
func withBudget(t *testing.T, budget uint64) {
	t.Helper()
	old := memoBudget
	ResetMemo()
	memoBudget = budget
	t.Cleanup(func() { memoBudget = old; ResetMemo() })
}

// TestPreconditionMemoMatchesComputed checks that the FTL that fills the
// memo and the one restored from it both equal a freshly computed state.
// Seeds 2-4 stand for fleet devices, which precondition under Seed+i.
func TestPreconditionMemoMatchesComputed(t *testing.T) {
	ResetMemo()
	t.Cleanup(ResetMemo)
	geos := []struct {
		name string
		geo  flash.Geometry
		cfg  Config
	}{{"tiny", tinyGeo, DefaultConfig()}, {"scaled", scaledGeo, scaledCfg}}
	for _, g := range geos {
		for _, fill := range []float64{0, 0.85, 1.0} {
			for _, rewrite := range []float64{0, 0.25} {
				for seed := uint64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("%s/fill=%v/rewrite=%v/seed=%d", g.name, fill, rewrite, seed)
					t.Run(name, func(t *testing.T) {
						want := computed(g.geo, g.cfg, fill, rewrite, seed)
						for _, pass := range []string{"miss", "hit"} {
							got := memoized(g.geo, g.cfg, fill, rewrite, seed)
							if field := sameState(got, want); field != "" {
								t.Fatalf("%s: %s differs from the computed state", pass, field)
							}
							if err := got.CheckInvariants(); err != nil {
								t.Fatalf("%s: %v", pass, err)
							}
						}
					})
				}
			}
		}
	}
}

// TestPreconditionRestoreDoesNotAlias hammers restored FTLs with writes
// and trims until GC runs, then checks the memo still restores the
// original state.
func TestPreconditionRestoreDoesNotAlias(t *testing.T) {
	ResetMemo()
	t.Cleanup(ResetMemo)
	want := computed(scaledGeo, scaledCfg, 0.85, 0.25, 7)
	for _, f := range []*FTL{memoized(scaledGeo, scaledCfg, 0.85, 0.25, 7), memoized(scaledGeo, scaledCfg, 0.85, 0.25, 7)} {
		rng := trace.NewRNG(11)
		n := f.LogicalPages()
		for i := 0; f.Stats().Erases == 0 || i < 20000; i++ {
			if lpa := rng.Uint64n(n); rng.Bool(0.9) {
				f.Write(lpa, nil, nil)
			} else {
				f.Trim(lpa)
			}
		}
		f.eng.Run()
		if f.Stats().GCInvocations == 0 {
			t.Fatal("GC never ran")
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	got := memoized(scaledGeo, scaledCfg, 0.85, 0.25, 7)
	if field := sameState(got, want); field != "" {
		t.Fatalf("after churning earlier restores, %s differs from the computed state", field)
	}
}

func TestPreconditionOverBudgetIsNotMemoized(t *testing.T) {
	withBudget(t, 1)
	want := computed(tinyGeo, DefaultConfig(), 1, 0.25, 1)
	for i := 0; i < 2; i++ {
		if field := sameState(memoized(tinyGeo, DefaultConfig(), 1, 0.25, 1), want); field != "" {
			t.Fatalf("call %d: %s differs from the computed state", i, field)
		}
	}
	if n := memoEntries(); n != 0 {
		t.Fatalf("memo holds %d entries over a 1-byte budget", n)
	}
}

// TestPreconditionMemoStopsAtBudget sizes the budget for two tiny
// snapshots: the third key is computed but not kept, and still matches.
func TestPreconditionMemoStopsAtBudget(t *testing.T) {
	f := newFTL(tinyGeo, DefaultConfig())
	size := f.snapshotBytes(f.logicalPages)
	withBudget(t, 2*size)
	for _, seed := range []uint64{1, 2, 3} {
		want := computed(tinyGeo, DefaultConfig(), 1, 0.25, seed)
		if field := sameState(memoized(tinyGeo, DefaultConfig(), 1, 0.25, seed), want); field != "" {
			t.Fatalf("seed %d: %s differs from the computed state", seed, field)
		}
	}
	memo.Lock()
	var seeds []uint64
	for k := range memo.snaps {
		seeds = append(seeds, k.seed)
	}
	bytes := memo.bytes
	memo.Unlock()
	slices.Sort(seeds)
	if !slices.Equal(seeds, []uint64{1, 2}) || bytes != 2*size {
		t.Fatalf("memo holds seeds %v in %d bytes, want [1 2] in %d", seeds, bytes, 2*size)
	}
}

// TestPreconditionConcurrent preconditions one key and several distinct
// keys from many goroutines at once (run under -race in CI).
func TestPreconditionConcurrent(t *testing.T) {
	ResetMemo()
	t.Cleanup(ResetMemo)
	seeds := []uint64{1, 1, 1, 1, 1, 1, 2, 3, 4, 5}
	want := map[uint64]*FTL{}
	for _, s := range seeds {
		want[s] = computed(scaledGeo, scaledCfg, 0.85, 0.25, s)
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, s := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if field := sameState(memoized(scaledGeo, scaledCfg, 0.85, 0.25, s), want[s]); field != "" {
					t.Errorf("seed %d: %s differs from the computed state", s, field)
				}
			}()
		}
	}
	wg.Wait()
	if n := memoEntries(); n != 5 {
		t.Fatalf("memo holds %d entries, want one per distinct key (5)", n)
	}
}

func TestPreconditionRejectsBadRatios(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ fill, rewrite float64 }{
		{1.5, 0.25}, {-0.1, 0.25}, {nan, 0.25}, {inf, 0.25},
		{0.85, -0.5}, // used to loop forever: uint64 of a negative count wraps
		{0.85, nan}, {0.85, inf},
	} {
		t.Run(fmt.Sprintf("fill=%v/rewrite=%v", c.fill, c.rewrite), func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("fill %v, rewrite %v", c.fill, c.rewrite)) {
					t.Fatalf("panic %q does not name the ratios", msg)
				}
			}()
			newFTL(tinyGeo, DefaultConfig()).Precondition(c.fill, c.rewrite, 1)
		})
	}
}

// A NaN in the config would make the memo key unequal to itself, so
// every call would leave an entry behind that no lookup finds.
func TestPreconditionRejectsNaNConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCTriggerFree = math.NaN()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "NaN") {
			t.Fatalf("panic %q, want one naming the NaN config", msg)
		}
		if n := memoEntries(); n != 0 {
			t.Fatalf("memo holds %d entries", n)
		}
	}()
	ResetMemo()
	newFTL(tinyGeo, cfg).Precondition(0.5, 0, 1)
}

func TestPreconditionRequiresFreshFTL(t *testing.T) {
	for name, dirty := range map[string]func(f *FTL){
		"written":        func(f *FTL) { f.Write(0, nil, nil) },
		"preconditioned": func(f *FTL) { f.Precondition(0.5, 0, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			f := newFTL(tinyGeo, DefaultConfig())
			dirty(f)
			defer func() {
				if recover() == nil {
					t.Fatal("Precondition on a used FTL did not panic")
				}
			}()
			f.Precondition(0.5, 0, 1)
		})
	}
}

func TestNewRejectsGeometryBeyond32BitTables(t *testing.T) {
	geo := flash.Geometry{Channels: 1, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 1 << 24, PagesPerBlock: 256}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "32-bit") {
			t.Fatalf("New with %d pages: panic %q, want a 32-bit table bound", geo.TotalPages(), msg)
		}
	}()
	New(&sim.Engine{}, &flash.Array{Geo: geo}, DefaultConfig())
}

// BenchmarkPrecondition times Precondition alone on a ScaledConfig FTL,
// computing the state (memo=miss) or restoring it (memo=hit).
func BenchmarkPrecondition(b *testing.B) {
	eng := &sim.Engine{}
	arr := flash.New(eng, scaledGeo, flash.TimingULL)
	for _, mode := range []string{"miss", "hit"} {
		b.Run("memo="+mode, func(b *testing.B) {
			ResetMemo()
			b.Cleanup(ResetMemo)
			New(eng, arr, scaledCfg).Precondition(0.85, 0.25, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if mode == "miss" {
					ResetMemo()
				}
				f := New(eng, arr, scaledCfg)
				b.StartTimer()
				f.Precondition(0.85, 0.25, 1)
			}
		})
	}
}
