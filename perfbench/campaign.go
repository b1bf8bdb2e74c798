package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skybyte/internal/experiments"
	"skybyte/internal/store"
	"skybyte/internal/system"
)

// campaign runs Harness.All at parallelism 1: a cold pass into a fresh
// result store, then warm re-renders from that store.
type campaign struct {
	o    options
	opt  experiments.Options
	rep  *report
	keys map[string]string // design-point key -> result digest, from the first cold pass
	tabs string            // digest of the first cold pass's rendered tables
	n    int               // cycles run, for store directory names
}

// pass is one timed Harness.All and the gap before each runner event in
// it, keyed by design point.
type pass struct {
	gaps map[string]float64
	wall float64
}

// timedAll renders every table with h, timing the pass.
func timedAll(h *experiments.Harness) ([]experiments.Table, pass, error) {
	p := pass{gaps: map[string]float64{}}
	start := time.Now()
	last := start
	h.Opt.Progress = func(_, _ int, key string) {
		now := time.Now()
		p.gaps[key] += now.Sub(last).Seconds()
		last = now
	}
	tabs, err := h.AllErr(context.Background())
	p.wall = time.Since(start).Seconds()
	return tabs, p, err
}

// cycle is one cold pass and its warm re-renders.
type cycle struct {
	setup     []float64        // harness construction, every pass
	cold      pass             // the cold pass
	warm      []pass           // the warm passes
	instr     uint64           // retired instructions simulated in the cold pass
	simulated []string         // keys of the design points the cold pass simulated
	results   []*system.Result // the simulated results, first cycle only
	recalled  int              // design points one warm pass recalled
	puts      int              // entries the cold pass wrote to the store
	mem       memDelta         // over the cold pass
}

func runCampaign(o options) (*report, error) {
	opt := experiments.DefaultOptions()
	opt.Workloads = o.size.campaign
	opt.TotalInstr = o.size.total
	opt.SweepInstr = o.size.sweep
	opt.Seed = o.seed
	opt.Parallelism = 1
	c := &campaign{o: o, opt: opt, rep: newReport(), keys: map[string]string{}}
	rep := c.rep

	untraced := o.budget
	if o.traced {
		untraced /= 2
	}
	var cycles []*cycle
	err := repeat(untraced, func() error {
		cy, err := c.cycle()
		if err == nil {
			cycles = append(cycles, cy)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.iterations = len(cycles)
	first := cycles[0]
	sims := float64(len(first.simulated))
	series := map[string][]float64{}
	for _, cy := range cycles {
		setup := median(cy.setup)
		series["setup_s"] = append(series["setup_s"], cy.setup...)
		series["wall_s"] = append(series["wall_s"], cy.cold.wall)
		series["minstr_per_s"] = append(series["minstr_per_s"], float64(cy.instr)/1e6/(setup+cy.cold.wall))
		series["runs_per_s"] = append(series["runs_per_s"], sims/(setup+cy.cold.wall))
		for _, w := range cy.warm {
			series["recalls_per_s"] = append(series["recalls_per_s"], float64(cy.recalled)/(setup+w.wall))
		}
	}
	rep.summarize(series)

	counters := resultCounters(first.results)
	counters["runner.point_samples"] = sims
	counters["runner.simulated"] = sims
	counters["runner.recalled"] = float64(first.recalled)
	// A warm pass starts with an empty memo, so each recall is a store hit.
	counters["store.hits"] = float64(first.recalled)
	counters["store.puts"] = float64(first.puts)
	rep.setCounters(counters)
	if err := c.codec(first.results); err != nil {
		return nil, err
	}
	if !o.traced {
		return rep, nil
	}

	var pointMs, mallocs, gcs []float64
	for _, cy := range cycles {
		for _, k := range cy.simulated {
			pointMs = append(pointMs, cy.cold.gaps[k]*1e3)
		}
		mallocs = append(mallocs, float64(cy.mem.mallocs)/sims)
		gcs = append(gcs, float64(cy.mem.gcs))
	}
	rep.setLayer("runner.point_ms_p50", median(pointMs))
	rep.setLayer("runner.point_ms_p95", percentile(pointMs, 95))
	rep.setLayer("go.mallocs_per_run", median(mallocs))
	rep.setLayer("go.gc_cycles", median(gcs))
	rep.setLayer("ftl.precondition_s", preconditionSeconds(opt.BaseConfig))

	var traced []*cycle
	prof, err := profiled(func() error {
		return repeat(o.budget-untraced, func() error {
			cy, err := c.cycle()
			if err == nil {
				traced = append(traced, cy)
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	var tracedWall []float64
	for _, cy := range traced {
		tracedWall = append(tracedWall, cy.cold.wall)
	}
	rep.setProfile(prof, len(traced))
	// The design points are wired inside the runner, so system.New is
	// timed from the profile: its CPU time per simulated design point.
	rep.setLayer("system.new_s", prof.cumSeconds("skybyte/internal/system.New")/(sims*float64(len(traced))))
	rep.setLayer("tracing.overhead_s", median(tracedWall)-median(series["wall_s"]))
	rep.fillLayers()
	return rep, nil
}

// cycle runs one cold pass into a fresh store and the warm re-renders
// from it, checking every simulated design point and every rendering.
func (c *campaign) cycle() (*cycle, error) {
	c.n++
	opt := c.opt
	opt.CacheDir = filepath.Join(c.o.dir, fmt.Sprintf("campaign-%d", c.n))
	defer os.RemoveAll(opt.CacheDir)
	cy := &cycle{}
	rep := c.rep
	runtime.GC() // start every cold pass from the same heap state

	t0 := time.Now()
	h := experiments.NewHarness(opt)
	cy.setup = append(cy.setup, time.Since(t0).Seconds())
	h.Verbose = func(key string, r *system.Result) {
		if c.o.corrupt != nil {
			c.o.corrupt(r)
		}
		if c.n == 1 {
			cy.results = append(cy.results, r)
		}
		cy.simulated = append(cy.simulated, key)
		cy.instr += r.Instructions
		want, err := budgetOf(key)
		if err != nil {
			rep.op(key, err)
			return
		}
		d, errs := checkResult(r, want)
		ref := c.keys[key]
		errs = append(errs, sameDigest(&ref, d, "the first cold pass's"))
		c.keys[key] = ref
		rep.op(key, errs...)
	}
	m0 := memNow()
	tabs, p, err := timedAll(h)
	cy.cold = p
	cy.mem = memSince(m0)
	if err != nil {
		return nil, err
	}
	cold := tablesDigest(tabs)
	rep.op("cold tables", sameDigest(&c.tabs, cold, "the first cold pass's"))
	if rep.digest == "" {
		rep.digest = cold
	}
	disk, err := store.Open(opt.CacheDir, store.Fingerprint(opt.BaseConfig, opt.Seed))
	if err != nil {
		return nil, err
	}
	cy.puts = disk.Len()

	for i := 0; i < c.o.size.warm; i++ {
		runtime.GC() // start every warm pass from the same heap state
		t0 := time.Now()
		h := experiments.NewHarness(opt)
		cy.setup = append(cy.setup, time.Since(t0).Seconds())
		sims := 0
		h.Verbose = func(string, *system.Result) { sims++ }
		tabs, p, err := timedAll(h)
		if err != nil {
			return nil, err
		}
		cy.warm = append(cy.warm, p)
		cy.recalled = len(p.gaps) - sims
		var simErr error
		if sims != 0 {
			simErr = fmt.Errorf("warm pass simulated %d design points, want 0", sims)
		}
		rep.op("warm render", simErr, sameDigest(&cold, tablesDigest(tabs), "the cold pass's"))
	}
	for i := 0; i < c.o.size.setups; i++ {
		t0 := time.Now()
		experiments.NewHarness(opt)
		cy.setup = append(cy.setup, time.Since(t0).Seconds())
	}
	return cy, nil
}

// codec times the result codec and the store on the cold pass's
// results: one Put, EncodeResult, DecodeResult and Get each, in a
// scratch store.
func (c *campaign) codec(results []*system.Result) error {
	dir := filepath.Join(c.o.dir, "codec")
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir, store.Fingerprint(c.opt.BaseConfig, c.opt.Seed))
	if err != nil {
		return err
	}
	var putUs, getUs, encUs, decUs []float64
	for i, r := range results {
		key := strconv.Itoa(i)
		t0 := time.Now()
		enc, err := system.EncodeResult(r)
		encUs = append(encUs, us(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := system.DecodeResult(enc); err != nil {
			return err
		}
		decUs = append(decUs, us(time.Since(t0)))
		t0 = time.Now()
		disk.Put(key, r)
		putUs = append(putUs, us(time.Since(t0)))
		t0 = time.Now()
		_, ok := disk.Get(key)
		getUs = append(getUs, us(time.Since(t0)))
		if !ok {
			return fmt.Errorf("codec: stored result %s missing", key)
		}
	}
	c.rep.setLayer("store.put_us", median(putUs))
	c.rep.setLayer("store.get_us", median(getUs))
	c.rep.setLayer("system.encode_us", median(encUs))
	c.rep.setLayer("system.decode_us", median(decUs))
	return nil
}

// budgetOf returns the retired instructions a design point's key asks
// for: its total budget, rounded down to a multiple of its thread count
// when the key names one.
func budgetOf(key string) (uint64, error) {
	f := strings.Split(key, "|")
	if len(f) < 4 {
		return 0, fmt.Errorf("key %q has no budget", key)
	}
	total, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("key %q: budget: %w", key, err)
	}
	threads, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("key %q: threads: %w", key, err)
	}
	if threads > 0 {
		total = total / threads * threads
	}
	return total, nil
}

func tablesDigest(tabs []experiments.Table) string {
	var b strings.Builder
	for _, t := range tabs {
		b.WriteString(t.String())
	}
	return digest([]byte(b.String()))
}
