package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"skybyte/internal/system"
	"skybyte/internal/trace"
)

// options are one workload run's inputs.
type options struct {
	seed   uint64
	budget time.Duration // host time to measure, split in half when traced
	traced bool
	dir    string // scratch directory, removed after the run
	size   size
	// corrupt, when set, may alter each simulated result before its
	// checks run; the self-test uses it to prove a bad result fails.
	corrupt func(*system.Result)
}

// size is a workload's work per timed unit.
type size struct {
	instr   uint64 // design points: retired instructions per design point
	recalls int    // design points: store Gets after each run
	setups  int    // set-ups timed besides the ones that run

	campaign []string // campaign: workloads swept
	total    uint64   // campaign: Options.TotalInstr
	sweep    uint64   // campaign: Options.SweepInstr
	warm     int      // campaign: warm re-renders per cold pass
}

// workload is one named benchmark input.
type workload struct {
	name string
	size size
	run  func(options) (*report, error)
}

// workloadList holds the benchmark's workloads. Their names are fixed;
// README.md gives the reason for each.
var workloadList = []workload{
	{
		name: "ycsb-full",
		size: size{instr: 4_800_000, recalls: 200, setups: 2},
		run: func(o options) (*report, error) {
			return runDesignPoint(designPoint{workload: "ycsb", variant: system.SkyByteFull, threads: 24}, o)
		},
	},
	{
		name: "radix-base-replay",
		size: size{instr: 4_800_000, recalls: 200, setups: 2},
		run: func(o options) (*report, error) {
			return runDesignPoint(designPoint{workload: "radix", variant: system.BaseCSSD, threads: 8, replay: true}, o)
		},
	},
	{
		name: "campaign-p1",
		size: size{campaign: []string{"bc", "srad", "ycsb"}, total: 96_000, sweep: 48_000, warm: 10, setups: 50},
		run:  runCampaign,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

// Units of every metric the benchmark prints. endToEnd is what --trace 0
// prints; perLayer is what --trace 1 prints. A metric a workload does
// not exercise reads 0 (README.md lists which).
var endToEnd = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"minstr_per_s":  "Minstr/s",
	"runs_per_s":    "1/s",
	"recalls_per_s": "1/s",
	"peak_rss_mb":   "MB",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		// setup layers
		"system.new_s":       "s",
		"ftl.precondition_s": "s",
		"go.mallocs_per_run": "count",
		"go.gc_cycles":       "count",
		// engine, CPU and caches
		"sim.events":        "count",
		"sim.ns_per_event":  "ns",
		"cpu.ctx_switches":  "count",
		"cpu.hint_switches": "count",
		"cpu.llc_misses":    "count",
		// controller
		"core.cache_hits":           "count",
		"core.cache_misses":         "count",
		"core.hints_sent":           "count",
		"writelog.compactions":      "count",
		"writelog.compacted_pages":  "count",
		"writelog.index_peak_bytes": "bytes",
		// FTL, flash and link
		"ftl.user_programs":     "count",
		"ftl.gc_programs":       "count",
		"ftl.gc_invocations":    "count",
		"ftl.erases":            "count",
		"flash.reads":           "count",
		"flash.programs":        "count",
		"flash.utilization":     "ratio",
		"cxl.to_device_bytes":   "bytes",
		"cxl.to_host_bytes":     "bytes",
		"trace.open_s":          "s",
		"trace.next_ns":         "ns",
		"workloads.next_ns":     "ns",
		"runner.point_ms_p50":   "ms",
		"runner.point_ms_p95":   "ms",
		"runner.point_samples":  "count",
		"runner.simulated":      "count",
		"runner.recalled":       "count",
		"store.hits":            "count",
		"store.puts":            "count",
		"store.put_us":          "us",
		"store.get_us":          "us",
		"system.encode_us":      "us",
		"system.decode_us":      "us",
		"tracing.overhead_s":    "s",
		"tracing.profile_s":     "s",
		"tracing.profile_units": "count",
	}
	for _, l := range selfLayers {
		m[l+".self_s"] = "s"
	}
	return m
}()

// deterministic names the per-layer counters that are pure functions of
// the simulated inputs: they repeat exactly for a seed, so every run
// prints them (a simulator-speed change must leave them unchanged).
var deterministic = []string{
	"sim.events", "cpu.ctx_switches", "cpu.hint_switches", "cpu.llc_misses",
	"core.cache_hits", "core.cache_misses", "core.hints_sent",
	"writelog.compactions", "writelog.compacted_pages", "writelog.index_peak_bytes",
	"ftl.user_programs", "ftl.gc_programs", "ftl.gc_invocations", "ftl.erases",
	"flash.reads", "flash.programs", "flash.utilization",
	"cxl.to_device_bytes", "cxl.to_host_bytes",
	"runner.point_samples", "runner.simulated", "runner.recalled", "store.hits", "store.puts",
}

// resultCounters sums the per-layer counters of results: a design point
// passes one, a campaign pass every design point it simulated. The
// write-log index peak is the largest peak, flash utilization the mean.
func resultCounters(rs []*system.Result) map[string]float64 {
	c := map[string]float64{}
	for _, r := range rs {
		c["cpu.ctx_switches"] += float64(r.CtxSwitches)
		c["cpu.hint_switches"] += float64(r.HintSwitches)
		c["cpu.llc_misses"] += float64(r.LLCMisses)
		c["core.cache_hits"] += float64(r.CacheStats.Hits)
		c["core.cache_misses"] += float64(r.CacheStats.Misses)
		c["core.hints_sent"] += float64(r.HintsSent)
		c["writelog.compactions"] += float64(r.Compaction.Count)
		c["writelog.compacted_pages"] += float64(r.Compaction.Pages)
		c["writelog.index_peak_bytes"] = max(c["writelog.index_peak_bytes"], float64(r.LogIndexPeak))
		c["ftl.user_programs"] += float64(r.FTLStats.UserPrograms)
		c["ftl.gc_programs"] += float64(r.FTLStats.GCPrograms)
		c["ftl.gc_invocations"] += float64(r.FTLStats.GCInvocations)
		c["ftl.erases"] += float64(r.FTLStats.Erases)
		c["flash.reads"] += float64(r.FlashStats.Reads)
		c["flash.programs"] += float64(r.FlashStats.Programs)
		c["flash.utilization"] += r.FlashUtilization / float64(len(rs))
		c["cxl.to_device_bytes"] += float64(r.LinkStats.ToDeviceBytes)
		c["cxl.to_host_bytes"] += float64(r.LinkStats.ToHostBytes)
	}
	return c
}

// setCounters records the deterministic counters under their per-layer
// units; a counter absent from c reads 0.
func (r *report) setCounters(c map[string]float64) {
	for _, name := range deterministic {
		r.counters[name] = metric{c[name], perLayer[name]}
	}
}

// setLayer records one per-layer host-time (or other non-deterministic)
// metric.
func (r *report) setLayer(name string, v float64) {
	r.layers[name] = metric{v, perLayer[name]}
}

// fillLayers sets every per-layer metric the workload did not measure to
// 0, so a traced run always prints the full set.
func (r *report) fillLayers() {
	for name, unit := range perLayer {
		_, c := r.counters[name]
		_, l := r.layers[name]
		if !c && !l {
			r.layers[name] = metric{0, unit}
		}
	}
}

// checkResult runs the per-result checks: the retired instructions
// equal the requested budget, and the result survives an encode, decode
// and re-encode byte for byte. It returns the encoding's digest and one
// error per check.
func checkResult(r *system.Result, want uint64) (string, []error) {
	var instrErr, codecErr error
	if r.Instructions != want {
		instrErr = fmt.Errorf("retired %d instructions, want %d", r.Instructions, want)
	}
	enc, err := system.EncodeResult(r)
	if err != nil {
		return "", []error{instrErr, err}
	}
	dec, err := system.DecodeResult(enc)
	if err == nil {
		var again []byte
		again, err = system.EncodeResult(dec)
		if err == nil && !bytes.Equal(enc, again) {
			err = fmt.Errorf("decode+re-encode changed the result encoding")
		}
	}
	codecErr = err
	return digest(enc), []error{instrErr, codecErr}
}

// sameDigest checks got against the reference digest *ref, which the
// first call sets.
func sameDigest(ref *string, got, what string) error {
	if *ref == "" {
		*ref = got
		return nil
	}
	if got != *ref {
		return fmt.Errorf("digest %.12s differs from %s %.12s", got, what, *ref)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// profiled runs f under the CPU profiler and returns its profile.
func profiled(f func() error) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	return parseCPUProfile(buf.Bytes())
}

// setProfile records the traced run's per-layer self time per timed
// unit, and the profile's total.
func (r *report) setProfile(p *cpuProfile, units int) {
	self := p.selfSeconds()
	for _, l := range selfLayers {
		r.setLayer(l+".self_s", self[l]/float64(units))
	}
	r.setLayer("tracing.profile_s", p.totalSeconds()/float64(units))
	r.setLayer("tracing.profile_units", float64(units))
}

// memDelta is the allocation and GC activity between two points.
type memDelta struct{ mallocs, gcs uint64 }

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memNow()
	return memDelta{m1.Mallocs - m0.Mallocs, uint64(m1.NumGC - m0.NumGC)}
}

// nextTimer times every Next call of the streams it wraps. It is used
// in the traced run only: two clock reads per record are a large share
// of a generator's own cost, so the figure includes that overhead.
type nextTimer struct {
	calls uint64
	ns    int64
}

type timedStream struct {
	src trace.Stream
	t   *nextTimer
}

func (s timedStream) Next() (trace.Record, bool) {
	t0 := time.Now()
	r, ok := s.src.Next()
	s.t.ns += int64(time.Since(t0))
	s.t.calls++
	return r, ok
}

func (t *nextTimer) wrap(s trace.Stream) trace.Stream {
	if t == nil {
		return s
	}
	return timedStream{s, t}
}

func (t *nextTimer) nsPerCall() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls)
}
