package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"skybyte/internal/flash"
	"skybyte/internal/ftl"
	"skybyte/internal/sim"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

// designPoint is one simulated machine running one workload.
type designPoint struct {
	workload string
	variant  system.Variant
	threads  int
	replay   bool // replay a v2 trace recorded in set-up instead of the generator
}

// point is a design point wired for repeated runs.
type point struct {
	cfg     system.Config
	threads int
	per     uint64                 // instructions per thread
	gen     func(int) trace.Stream // generator stream of thread i
	path    string                 // when set, replay this trace file instead
}

// wired is a design point set up and ready to run.
type wired struct {
	sys              *system.System
	rd               *trace.Reader // replay source, closed after the run
	newT, open, done time.Duration // system.New, trace.OpenFile, all of set-up
}

// wire sets the design point up: system.New, plus trace.OpenFile on
// replay, plus AddThread, wrapping each thread's stream in t when t is
// not nil.
func (p *point) wire(t *nextTimer) (*wired, error) {
	start := time.Now()
	w := &wired{sys: system.New(p.cfg)}
	w.newT = time.Since(start)
	stream := p.gen
	if p.path != "" {
		t0 := time.Now()
		rd, err := trace.OpenFile(p.path)
		w.open = time.Since(t0)
		if err != nil {
			return nil, err
		}
		w.rd = rd
		stream = rd.Stream
	}
	for i := 0; i < p.threads; i++ {
		w.sys.AddThread(t.wrap(stream(i)), p.per)
	}
	w.done = time.Since(start)
	return w, nil
}

func (w *wired) close() {
	if w.rd != nil {
		w.rd.Close()
	}
}

// sample is one timed design-point run.
type sample struct {
	newT, setup, open, wall time.Duration
	res                     *system.Result
	events                  uint64
	mem                     memDelta
}

// once sets up and runs the design point from a collected heap.
func (p *point) once(t *nextTimer) (sample, error) {
	runtime.GC() // start every run from the same heap state
	m0 := memNow()
	w, err := p.wire(t)
	if err != nil {
		return sample{}, err
	}
	defer w.close()
	t0 := time.Now()
	s := sample{newT: w.newT, setup: w.done, open: w.open}
	s.res = w.sys.Run()
	s.wall = time.Since(t0)
	s.events = w.sys.Eng.Fired()
	s.mem = memSince(m0)
	return s, nil
}

// setupOnly sets the design point up without running it and returns
// the set-up time.
func (p *point) setupOnly() (time.Duration, error) {
	w, err := p.wire(nil)
	if err != nil {
		return 0, err
	}
	w.close()
	return w.done, nil
}

// record writes the generator's streams, truncated to the per-thread
// budget exactly as AddThread truncates them, to a v2 trace file.
func (p *point) record(path string, w workloads.Spec, seed uint64) error {
	enc, err := trace.NewStreamEncoder(2)
	if err != nil {
		return err
	}
	for i := 0; i < p.threads; i++ {
		enc.BeginThread()
		src := &trace.Limited{Src: p.gen(i), Budget: p.per}
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			if err := enc.Append(r); err != nil {
				return err
			}
		}
	}
	data, err := enc.Finish(trace.Meta{
		Workload: w.Name, Seed: seed, FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func runDesignPoint(dp designPoint, o options) (*report, error) {
	w, err := workloads.ByName(dp.workload)
	if err != nil {
		return nil, err
	}
	cfg := system.ScaledConfig().WithVariant(dp.variant)
	cfg.Seed = o.seed
	p := &point{
		cfg:     cfg,
		threads: dp.threads,
		per:     o.size.instr / uint64(dp.threads),
		gen:     func(i int) trace.Stream { return w.Stream(i, o.seed) },
	}
	want := p.per * uint64(dp.threads)
	rep := newReport()

	check := func(what string, s sample) {
		if o.corrupt != nil {
			o.corrupt(s.res)
		}
		d, errs := checkResult(s.res, want)
		rep.op(what, append(errs, sameDigest(&rep.digest, d, "the first run's"))...)
	}

	// Replay: record the trace, then run the generator-driven design
	// point once. Its digest is the reference every replayed run must
	// match. Its Next timing is the generator's, when traced.
	var gens nextTimer
	if dp.replay {
		p.path = filepath.Join(o.dir, dp.workload+".trc")
		if err := p.record(p.path, w, o.seed); err != nil {
			return nil, fmt.Errorf("record trace: %w", err)
		}
		gp := *p
		gp.path = ""
		var t *nextTimer
		if o.traced {
			t = &gens
		}
		s, err := gp.once(t)
		if err != nil {
			return nil, err
		}
		check("generator run", s)
	}

	// Untraced runs: the end-to-end metrics and the per-layer timings.
	// After each run the result is recalled from a disk store in a
	// batch, and the design point is set up a few more times, so the
	// recall and set-up samples spread over the whole run too.
	untraced := o.budget
	if o.traced {
		untraced /= 2
	}
	series := map[string][]float64{}
	var rc *recaller
	var first sample
	var newT, open, nsPerEvent, mallocs, gcs, totals []float64
	err = repeat(untraced, func() error {
		s, err := p.once(nil)
		if err != nil {
			return err
		}
		check("design point", s)
		if rc == nil {
			first = s
			if rc, err = newRecaller(rep, o, cfg, s.res); err != nil {
				return err
			}
		}
		total := (s.setup + s.wall).Seconds()
		totals = append(totals, total)
		series["setup_s"] = append(series["setup_s"], s.setup.Seconds())
		series["wall_s"] = append(series["wall_s"], s.wall.Seconds())
		series["minstr_per_s"] = append(series["minstr_per_s"], float64(s.res.Instructions)/1e6/total)
		series["runs_per_s"] = append(series["runs_per_s"], 1/total)
		newT = append(newT, s.newT.Seconds())
		open = append(open, s.open.Seconds())
		nsPerEvent = append(nsPerEvent, float64(s.wall.Nanoseconds())/float64(s.events))
		mallocs = append(mallocs, float64(s.mem.mallocs))
		gcs = append(gcs, float64(s.mem.gcs))
		for n := o.size.recalls; n > 0; n -= recallBatch {
			series["recalls_per_s"] = append(series["recalls_per_s"], rc.batch(min(n, recallBatch)))
		}
		for i := 0; i < o.size.setups; i++ {
			runtime.GC()
			d, err := p.setupOnly()
			if err != nil {
				return err
			}
			series["setup_s"] = append(series["setup_s"], d.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.iterations = len(newT)
	rep.summarize(series)
	counters := resultCounters([]*system.Result{first.res})
	counters["sim.events"] = float64(first.events)
	counters["store.puts"] = float64(rc.puts)
	counters["store.hits"] = float64(rc.hits) / float64(rep.iterations) // per run
	rep.setCounters(counters)
	rep.setLayer("store.get_us", median(rc.getUs))
	if !o.traced {
		return rep, nil
	}

	rep.setLayer("system.new_s", median(newT))
	rep.setLayer("ftl.precondition_s", preconditionSeconds(cfg))
	rep.setLayer("go.mallocs_per_run", median(mallocs))
	rep.setLayer("go.gc_cycles", median(gcs))
	rep.setLayer("sim.ns_per_event", median(nsPerEvent))
	if dp.replay {
		rep.setLayer("trace.open_s", median(open))
	}

	// Traced runs: the same design point under the CPU profiler, with
	// every stream's Next timed.
	var next nextTimer
	var tracedTotal []float64
	prof, err := profiled(func() error {
		return repeat(o.budget-untraced, func() error {
			s, err := p.once(&next)
			if err != nil {
				return err
			}
			check("traced design point", s)
			tracedTotal = append(tracedTotal, (s.setup + s.wall).Seconds())
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep.setProfile(prof, len(tracedTotal))
	rep.setLayer("tracing.overhead_s", median(tracedTotal)-median(totals))
	if dp.replay {
		rep.setLayer("trace.next_ns", next.nsPerCall())
		rep.setLayer("workloads.next_ns", gens.nsPerCall())
	} else {
		rep.setLayer("workloads.next_ns", next.nsPerCall())
	}
	rep.fillLayers()
	return rep, nil
}

// recaller recalls a design point's result from a disk store.
type recaller struct {
	rep   *report
	disk  *store.Disk
	puts  int // Puts in set-up
	hits  int // Gets that found the result
	getUs []float64
}

// recallKey is the store key the design point's result is put under.
const recallKey = "design-point"

// recallBatch is the most Gets one timed recall batch holds. A Get of a
// design point's few-KB result costs a few hundred microseconds, mostly
// in file system calls; batches of 50 keep the clock's share small and
// give each run several batches to take the best of.
const recallBatch = 50

// newRecaller puts res into a fresh disk store. It also times Put,
// EncodeResult and DecodeResult on res for the per-layer metrics.
func newRecaller(rep *report, o options, cfg system.Config, res *system.Result) (*recaller, error) {
	disk, err := store.Open(filepath.Join(o.dir, "store"), store.Fingerprint(cfg, o.seed))
	if err != nil {
		return nil, err
	}
	rc := &recaller{rep: rep, disk: disk, puts: 10}
	var putUs, encUs, decUs []float64
	for i := 0; i < rc.puts; i++ {
		t0 := time.Now()
		disk.Put(recallKey, res)
		putUs = append(putUs, us(time.Since(t0)))
		t0 = time.Now()
		enc, err := system.EncodeResult(res)
		encUs = append(encUs, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		_, err = system.DecodeResult(enc)
		decUs = append(decUs, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	rep.setLayer("store.put_us", median(putUs))
	rep.setLayer("system.encode_us", median(encUs))
	rep.setLayer("system.decode_us", median(decUs))
	return rc, nil
}

// batch gets the stored result n times from a collected heap, checks
// that each Get returns the simulated result, and returns the batch's
// recalls per second.
func (rc *recaller) batch(n int) float64 {
	runtime.GC()
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		got, ok := rc.disk.Get(recallKey)
		el := time.Since(t0)
		total += el
		rc.getUs = append(rc.getUs, us(el))
		if !ok {
			rc.rep.op("recall", fmt.Errorf("stored result missing"))
			continue
		}
		rc.hits++
		enc, err := system.EncodeResult(got)
		if err == nil {
			err = sameDigest(&rc.rep.digest, digest(enc), "the simulated result's")
		}
		rc.rep.op("recall", err)
	}
	return float64(n) / total.Seconds()
}

// preconditionSeconds times a standalone flash.New, ftl.New and
// Precondition with cfg's geometry, fill and seed (median of three).
func preconditionSeconds(cfg system.Config) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		var eng sim.Engine
		t0 := time.Now()
		arr := flash.New(&eng, cfg.Geometry, cfg.Timing)
		fl := ftl.New(&eng, arr, cfg.FTL)
		fl.Precondition(cfg.PreconditionFill, cfg.PreconditionRewrit, cfg.Seed)
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}

// repeat calls f until budget has elapsed, at least once.
func repeat(budget time.Duration, f func() error) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
