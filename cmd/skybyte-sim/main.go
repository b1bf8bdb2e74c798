// skybyte-sim runs a single simulation — the equivalent of the artifact's
// ./macsim invocation: one workload, one design variant, with the paper's
// configuration knobs exposed as flags.
//
// Example:
//
//	skybyte-sim -workload ycsb -variant SkyByte-Full -threads 24 -instr 16000
//	skybyte-sim -workload srad -variant Base-CSSD -cs-threshold 10us
//	skybyte-sim -workload-file my-workload.json -variant SkyByte-Full
//	skybyte-sim -workload-file recorded.trc -variants Base-CSSD,SkyByte-Full
//	skybyte-sim -mix graph-vs-log -variant SkyByte-Full       # multi-tenant run
//	skybyte-sim -mix-file mix.json -variant Base-CSSD         # file-defined mix
//	skybyte-sim -arrival open-steady -arrival-scale 2         # open-loop run
//	skybyte-sim -arrival-file traffic.json -variant SkyByte-C # file-defined arrival spec
//
// With -variants (plural), several design points run concurrently over
// the shared worker pool and print as one comparison:
//
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-W,SkyByte-Full
//
// With -cache-dir, completed runs persist in the content-addressed
// result store and later invocations (same workload, variant, knobs,
// and seed) recall them instead of re-simulating. A comparison can be
// split across machines sharing a store and merged without simulating:
//
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-Full -cache-dir .c -shard 0/2
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-Full -cache-dir .c -shard 1/2
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-Full -cache-dir .c -from-cache
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"skybyte"
	"skybyte/internal/cli"
	"skybyte/internal/fleet"
	"skybyte/internal/osched"
	"skybyte/internal/runner"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/telemetry"
)

func main() {
	in := cli.Bind(flag.CommandLine)
	var (
		arrScale  = flag.Float64("arrival-scale", 1, "with -arrival: multiply every cohort rate by this offered-intensity scale")
		variant   = flag.String("variant", "SkyByte-Full", "design variant (Base-CSSD, SkyByte-{C,P,W,CP,WP,Full,CT,WCT}, AstriFlash-CXL, DRAM-Only)")
		variants  = flag.String("variants", "", "comma-separated variants to compare; they run in parallel and print one table")
		parallel  = flag.Int("parallel", 0, "with -variants: simulations in flight at once (0 = GOMAXPROCS)")
		threads   = cli.Int(flag.CommandLine, "threads", 0, 0, "software threads (0 = paper default: 24 with context switch, 8 otherwise)")
		instr     = flag.Uint64("instr", 16000, "instructions per thread")
		seed      = flag.Uint64("seed", 1, "workload seed")
		devices   = flag.Int("devices", 0, "wire a fleet of this many CXL-SSDs behind the placement layer (0 = the single-device machine; max 16); prints per-device fleet-dev rows")
		placement = flag.String("placement", "", "with -devices >= 2: fleet placement policy (striped, capacity, hotcold; default striped)")
		threshold = flag.Duration("cs-threshold", 2*time.Microsecond, "context-switch trigger threshold (artifact knob cs_threshold)")
		policy    = flag.String("policy", "FAIRNESS", "scheduling policy: RR, RANDOM, FAIRNESS (artifact knob t_policy)")
		cacheMB   = cli.Int(flag.CommandLine, "ssd-dram-mb", 0, 0, "override total SSD DRAM size in MiB (artifact knob ssd_cache_size_byte; 0 = the variant's size)")
		logKB     = cli.Int(flag.CommandLine, "write-log-kb", 0, 0, "override write log size in KiB (0 = the variant's size)")
		paper     = flag.Bool("paper-scale", false, "use Table II capacities verbatim instead of the 1/64 scaled machine")
		telDur    = flag.Duration("telemetry", 0, "sample in-simulator probes (write-log occupancy, queue depths, per-class p99, ...) every this much simulated time; the time-series ride in the result (0 = off, zero cost)")
		timeline  = flag.String("timeline", "", "with -telemetry: also record the request-lifecycle timeline and write it to this file as Chrome trace-event JSON (load in Perfetto or chrome://tracing)")
		cacheDir  = flag.String("cache-dir", "", "persist results in the content-addressed store rooted here; identical runs are recalled, not re-simulated")
		shardSpec = flag.String("shard", "", "with -variants and -cache-dir: execute only slice i of n (format i/n) of the comparison")
		fromCache = flag.Bool("from-cache", false, "with -variants and -cache-dir: render from the store only; a missing run is an error")
	)
	flag.Parse()

	// Resolve the one load before anything simulates. A file or import
	// both registers its definition (so the runner's source-folded
	// spec keys reflect it exactly) and selects it for this run.
	src, err := in.Source()
	if err != nil {
		cli.Fail(err)
	}
	load, err := src.Load()
	if err != nil {
		cli.Fail(err)
	}
	w, mix, arr := load.Workload, load.Mix, load.Arrival
	if w.Name == "" {
		// A mix or an arrival spec lays out its own threads.
		if *variants != "" {
			cli.Fail(fmt.Errorf("%v runs one design point at a time; it cannot be combined with -variants", src))
		}
		if *threads != 0 {
			cli.Fail(fmt.Errorf("%v declares its own thread counts; -threads does not apply", src))
		}
	}
	if arr.Name != "" && (!(*arrScale > 0) || math.IsInf(*arrScale, 0)) {
		cli.Fail(fmt.Errorf("-arrival-scale %g: the offered-intensity scale must be a positive finite number", *arrScale))
	}
	var variantList []system.Variant
	if *variants != "" {
		for _, name := range strings.Split(*variants, ",") {
			v, err := system.ParseVariant(strings.TrimSpace(name))
			if err != nil {
				cli.Fail(err)
			}
			variantList = append(variantList, v)
		}
	} else if _, err := system.ParseVariant(*variant); err != nil {
		cli.Fail(err)
	}
	// Fleet flags reject unknown values upfront, listing the valid set
	// (the same convention as -variant), before anything simulates.
	if *devices != 0 {
		if err := fleet.Validate(*devices, *placement); err != nil {
			cli.Fail(err)
		}
	}
	if *placement != "" && *devices < 2 {
		cli.Fail(fmt.Errorf("-placement %q needs a fleet to place across; use -devices 2..%d (valid policies: %s)", *placement, fleet.MaxDevices, strings.Join(fleet.PolicyNames(), ", ")))
	}
	if *timeline != "" && *telDur <= 0 {
		cli.Fail(fmt.Errorf("-timeline records spans on the telemetry sampler; it requires -telemetry <cadence>"))
	}
	if *timeline != "" && *variants != "" {
		cli.Fail(fmt.Errorf("-timeline writes one run's timeline; it cannot be combined with -variants"))
	}
	if (*shardSpec != "" || *fromCache) && *cacheDir == "" {
		cli.Fail(fmt.Errorf("-shard and -from-cache require -cache-dir"))
	}
	if (*shardSpec != "" || *fromCache) && *variants == "" {
		cli.Fail(fmt.Errorf("-shard and -from-cache apply to the -variants comparison"))
	}
	shardI, shardN := 0, 1
	if *shardSpec != "" {
		var err error
		if shardI, shardN, err = runner.ParseShard(*shardSpec); err != nil {
			cli.Fail(fmt.Errorf("-shard: %w", err))
		}
	}

	base := skybyte.ScaledConfig()
	if *paper {
		base = skybyte.PaperConfig()
	}
	// Workload and mix definitions reach the store identity through the
	// runner's source-folded spec keys (DESIGN.md §2.1): an edited file
	// or re-recorded trace re-keys exactly the runs that use it.
	// knobs applies the CLI overrides on top of a variant config; every
	// run uses it as the spec's config mutation. knobTag
	// folds the knob values into the spec identity, so runs with
	// different CLI settings never collide in a persistent store
	// (mutations are excluded from Spec.Key by design; the tag carries
	// them).
	knobs := func(c *skybyte.Config) {
		c.HintThreshold = sim.Time(threshold.Nanoseconds()) * sim.Nanosecond
		c.Policy = osched.PolicyKind(*policy)
		if *cacheMB > 0 {
			c.SSDDRAMBytes = *cacheMB << 20
		}
		if *logKB > 0 {
			c.WriteLogBytes = *logKB << 10
		}
		if *telDur > 0 {
			c.TelemetryCadence = sim.Time(telDur.Nanoseconds()) * sim.Nanosecond
			c.TelemetryTimeline = *timeline != ""
		}
	}
	knobTag := fmt.Sprintf("cli|thr=%v|pol=%s|dram=%dMB|log=%dKB|tel=%v|tl=%t",
		*threshold, *policy, *cacheMB, *logKB, *telDur, *timeline != "")

	// Every mode runs through the runner; -cache-dir attaches the
	// persistent store, so identical runs recall instead of simulating.
	r := runner.New(base, *seed, *parallel)
	if *cacheDir != "" {
		disk, err := store.Open(*cacheDir, store.Fingerprint(base, *seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r.Store = disk
		r.CacheOnly = *fromCache
	}

	// spec carries what every mode shares. Devices/Placement are spec
	// identity, not knob-tag material: the runner folds them into the
	// store key (DESIGN.md §9).
	spec := runner.Spec{
		Variant:   skybyte.Variant(*variant),
		Devices:   *devices,
		Placement: *placement,
		Tag:       knobTag,
		Mutate:    knobs,
	}

	if *variants != "" {
		compareVariants(r, base, w, variantList, *threads, *instr, spec, shardI, shardN, *shardSpec != "")
		return
	}

	cfg := base.WithVariant(spec.Variant)
	knobs(&cfg)
	var report func(res *skybyte.Result, wall time.Duration)
	switch {
	case mix.Name != "":
		spec.Mix, spec.Threads = mix.Name, mix.TotalThreads()
		spec.TotalInstr = *instr * uint64(spec.Threads)
		report = func(res *skybyte.Result, wall time.Duration) { printMix(res, mix, cfg.Cores, wall) }
	case arr.Name != "":
		n, err := arr.TotalThreads()
		if err != nil {
			cli.Fail(err)
		}
		spec.Arrival, spec.ArrivalScale = arr.Name, *arrScale
		spec.TotalInstr = *instr * uint64(n)
		report = func(res *skybyte.Result, wall time.Duration) { printArrival(res, arr, *arrScale, n, cfg.Cores, wall) }
	default:
		n := *threads
		if n == 0 {
			// Same paper default as the comparison path, so both modes
			// measure — and, with -cache-dir, share — the same design point.
			n = runner.ThreadsFor(cfg)
		}
		spec.Workload, spec.Threads = w.Name, n
		spec.TotalInstr = *instr * uint64(n)
		report = func(res *skybyte.Result, wall time.Duration) { printRun(res, w, n, cfg.Cores, wall) }
	}
	// -instr is per thread in every mode: an intensity-1 tenant's or a
	// cohort's threads each replay that many instructions.
	start := time.Now()
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(res, time.Since(start))
	emitFleet(res)
	emitTelemetry(res, *timeline)
}

// printRun prints one workload run's measurements.
func printRun(res *skybyte.Result, w skybyte.Workload, threads, cores int, wall time.Duration) {
	fmt.Printf("workload        %s (%s footprint, paper MPKI %.1f)\n", w.Name, stats.FormatGB(w.FootprintBytes()), w.PaperMPKI)
	fmt.Printf("variant         %s, %d threads on %d cores\n", res.Variant, threads, cores)
	fmt.Printf("exec time       %v   (%.1fM instr, %.0f MIPS simulated; wall %v)\n",
		res.ExecTime, float64(res.Instructions)/1e6, res.IPS()/1e6, wall.Round(time.Millisecond))
	fmt.Printf("boundedness     compute %.1f%%  memory %.1f%%  ctx-switch %.1f%%\n",
		100*res.Bound.ComputeFrac(), 100*res.Bound.MemFrac(), 100*res.Bound.CtxFrac())
	fmt.Printf("AMAT            %v (host %v | protocol %v | index %v | ssdDRAM %v | flash %v)\n",
		res.AMAT.Mean(),
		res.AMAT.MeanOf(stats.AMATHostDRAM), res.AMAT.MeanOf(stats.AMATCXLProtocol),
		res.AMAT.MeanOf(stats.AMATIndexing), res.AMAT.MeanOf(stats.AMATSSDDRAM), res.AMAT.MeanOf(stats.AMATFlash))
	fmt.Printf("read latency    p50 %v  p99 %v  max %v\n",
		res.ReadLat.Percentile(50), res.ReadLat.Percentile(99), res.ReadLat.Max())
	fmt.Printf("requests        H-R/W %.1f%%  S-R-H %.1f%%  S-R-M %.1f%%  S-W %.1f%%\n",
		100*res.Breakdown.Frac(stats.HostRW), 100*res.Breakdown.Frac(stats.SSDReadHit),
		100*res.Breakdown.Frac(stats.SSDReadMiss), 100*res.Breakdown.Frac(stats.SSDWrite))
	fmt.Printf("flash           reads %d  programs %d (user %d, compact %d, GC %d, demote %d)  erases %d\n",
		res.Traffic.TotalReads(), res.Traffic.TotalPrograms(), res.Traffic.HostPrograms,
		res.Traffic.CompactWrites, res.Traffic.GCPrograms, res.Traffic.DemoteWrites, res.Traffic.Erases)
	fmt.Printf("MPKI            %.1f   LLC misses %d\n", res.MPKI, res.LLCMisses)
	if res.HintsSent > 0 {
		fmt.Printf("SkyByte-Delay   hints %d  switches %d (hint-triggered %d)\n", res.HintsSent, res.CtxSwitches, res.HintSwitches)
	}
	if res.Compaction.Count > 0 {
		fmt.Printf("compaction      %d runs, mean %v, %d pages; peak log index %s\n",
			res.Compaction.Count, res.Compaction.Mean(), res.Compaction.Pages, stats.FormatGB(uint64(res.LogIndexPeak)))
	}
	if res.Migration.Promotions > 0 {
		fmt.Printf("migration       %d promotions, %d demotions\n", res.Migration.Promotions, res.Migration.Demotions)
	}
	fmt.Printf("SSD bandwidth   %.2f GB/s over CXL; flash die utilization %.1f%%\n",
		res.SSDBandwidthBps/1e9, 100*res.FlashUtilization)
}

// emitFleet prints the per-device split of a fleet run: one fleet-dev
// row per device, then a fleet-total row carrying the run's summed
// totals in the same space-separated columns (device, flash reads,
// flash programs, owned pages, inbound accesses) so scripted consumers
// can assert the splits reconcile against the totals. Non-fleet runs
// print nothing.
func emitFleet(res *skybyte.Result) {
	if len(res.Devices) == 0 {
		return
	}
	fmt.Printf("fleet           %d devices, %s placement, %d migrations\n",
		len(res.Devices), res.Placement, res.FleetMigrations)
	var pages, inbound uint64
	for _, d := range res.Devices {
		fmt.Printf("fleet-dev %d %d %d %d %d util %.1f%%\n",
			d.Device, d.Traffic.TotalReads(), d.Traffic.TotalPrograms(),
			d.Pages, d.Inbound, 100*d.FlashUtilization)
		pages += d.Pages
		inbound += d.Inbound
	}
	fmt.Printf("fleet-total all %d %d %d %d\n",
		res.Traffic.TotalReads(), res.Traffic.TotalPrograms(), pages, inbound)
}

// emitTelemetry prints the telemetry summary lines of a run that
// carried a sampled section, and writes the request-lifecycle timeline
// when a path was given. Output lines are prefixed "telemetry" so
// scripted consumers keyed on the existing row prefixes never see them.
func emitTelemetry(res *skybyte.Result, timelinePath string) {
	tel := res.Telemetry
	if tel == nil {
		return
	}
	fmt.Printf("telemetry       %d samples every %v across %d series\n",
		tel.Samples, tel.Cadence, len(tel.Series))
	if occ := tel.SeriesByName("writelog.occupancy"); occ != nil && len(occ.Points) > 0 {
		fmt.Printf("telemetry       write-log occupancy mean %.1f%%  peak %.1f%%\n",
			100*occ.Mean(0, res.ExecTime+1), 100*occ.Max(0, res.ExecTime+1))
	}
	if timelinePath == "" {
		return
	}
	f, err := os.Create(timelinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := telemetry.WriteChromeTrace(f, tel); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("telemetry       timeline: %d spans -> %s (load in Perfetto or chrome://tracing)\n",
		len(tel.Spans), timelinePath)
	if tel.DroppedSpans > 0 {
		fmt.Printf("telemetry       warning: %d spans beyond the recorder capacity were dropped\n", tel.DroppedSpans)
	}
}

// printMix prints one multi-tenant run's per-tenant accounting: who
// got what share of the machine, who paid for context switches, and
// who filled the write log.
func printMix(res *skybyte.Result, m skybyte.Mix, cores int, wall time.Duration) {
	fmt.Printf("mix             %s (%d tenants, %d threads on %d cores)\n",
		m.Name, len(m.Tenants), m.TotalThreads(), cores)
	fmt.Printf("variant         %s\n", res.Variant)
	fmt.Printf("exec time       %v   (%.1fM instr total; wall %v)\n",
		res.ExecTime, float64(res.Instructions)/1e6, wall.Round(time.Millisecond))
	fmt.Printf("boundedness     compute %.1f%%  memory %.1f%%  ctx-switch %.1f%%\n\n",
		100*res.Bound.ComputeFrac(), 100*res.Bound.MemFrac(), 100*res.Bound.CtxFrac())

	fmt.Printf("%-10s %-12s %7s %10s %12s %8s %8s %10s %8s %10s %8s\n",
		"tenant", "workload", "threads", "instr", "exec", "mem%", "ctx", "p99 read", "MPKI", "log lines", "stalls")
	ips := make([]float64, 0, len(res.Tenants))
	for _, tr := range res.Tenants {
		fmt.Printf("%-10s %-12s %7d %10d %12v %7.1f%% %8d %10v %8.1f %10d %8d\n",
			tr.Name, tr.Workload, tr.Threads, tr.Instructions, tr.ExecTime,
			100*tr.Bound.MemFrac(), tr.CtxSwitches, tr.ReadLat.Percentile(99), tr.MPKI,
			tr.Log.LinesAbsorbed, tr.Log.StalledWrites)
		ips = append(ips, tr.IPS())
	}
	fmt.Printf("\nfairness        Jain index %.3f over per-tenant progress rates (max/min %.2f)\n",
		stats.JainIndex(ips), stats.MaxMinRatio(ips))
}

// printArrival prints one open-loop run's per-SLO-class accounting:
// offered vs delivered request rate, the sojourn-latency percentiles,
// and the queueing share of the sojourn.
func printArrival(res *skybyte.Result, a skybyte.Arrival, scale float64, threads, cores int, wall time.Duration) {
	fmt.Printf("arrival         %s x%g (%d cohorts, %d threads on %d cores)\n",
		a.Name, scale, len(a.Cohorts), threads, cores)
	fmt.Printf("variant         %s\n", res.Variant)
	fmt.Printf("exec time       %v   (%.1fM instr total; wall %v)\n",
		res.ExecTime, float64(res.Instructions)/1e6, wall.Round(time.Millisecond))
	fmt.Printf("boundedness     compute %.1f%%  memory %.1f%%  ctx-switch %.1f%%\n\n",
		100*res.Bound.ComputeFrac(), 100*res.Bound.MemFrac(), 100*res.Bound.CtxFrac())

	if res.OpenLoop == nil {
		fmt.Println("no open-loop accounting recorded")
		return
	}
	fmt.Printf("%-10s %12s %12s %10s %10s %10s %10s %10s %12s\n",
		"class", "offered rps", "goodput rps", "p50", "p95", "p99", "p99.9", "max", "mean qdelay")
	for _, cl := range res.OpenLoop.Classes {
		fmt.Printf("%-10s %12.0f %12.0f %10v %10v %10v %10v %10v %12v\n",
			cl.Name, cl.OfferedRPS, cl.Stats.GoodputRPS(),
			cl.Stats.Latency.Percentile(50), cl.Stats.Latency.Percentile(95),
			cl.Stats.Latency.Percentile(99), cl.Stats.Latency.Percentile(99.9),
			cl.Stats.Latency.Max(), cl.Stats.QueueDelay.Mean())
	}
	tot := &res.OpenLoop.Total
	fmt.Printf("\ntotal           %d admitted, %d completed (%.0f rps goodput)\n",
		tot.Admitted, tot.Completed, tot.GoodputRPS())
}

// compareVariants runs one workload across several design points on the
// shared worker pool and prints them side by side (execution time
// normalized to the first variant listed). Every thread receives the
// same per-thread instruction budget, so variants with different paper
// thread defaults still execute comparable program sections per thread.
// With sharding, only the i-th of n slices executes (populating the
// store) and no table prints; -from-cache later renders the full
// comparison without simulating.
func compareVariants(r *runner.Runner, base skybyte.Config, w skybyte.Workload, vs []system.Variant, threads int, instrPerThread uint64, spec runner.Spec, shardI, shardN int, sharded bool) {
	specs := make([]runner.Spec, len(vs))
	for i, v := range vs {
		n := threads
		if n == 0 {
			vcfg := base.WithVariant(v)
			spec.Mutate(&vcfg)
			n = runner.ThreadsFor(vcfg)
		}
		specs[i] = spec
		specs[i].Workload, specs[i].Variant = w.Name, v
		specs[i].TotalInstr, specs[i].Threads = instrPerThread*uint64(n), n
	}
	run := specs
	if sharded {
		run = runner.ShardSpecs(specs, shardI, shardN)
	}
	var sims atomic.Int64
	r.OnEvent = func(ev runner.Event) {
		if !ev.Cached {
			sims.Add(1)
		}
	}
	start := time.Now()
	results, err := r.RunAll(context.Background(), run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start)

	if sharded {
		fmt.Printf("shard %d/%d: %d of %d %s design points in the store (%d simulated, %d recalled; wall %v)\n",
			shardI, shardN, len(run), len(specs), w.Name, sims.Load(), int64(len(run))-sims.Load(), wall.Round(time.Millisecond))
		return
	}
	fmt.Printf("workload %s, %d instr/thread, %d workers (wall %v)\n\n",
		w.Name, instrPerThread, r.Parallelism(), wall.Round(time.Millisecond))
	fmt.Printf("%-16s %8s %14s %8s %12s %10s %8s\n",
		"variant", "threads", "exec", "norm", "AMAT", "p99 read", "MPKI")
	ref := float64(results[0].ExecTime)
	for i, res := range results {
		fmt.Printf("%-16s %8d %14v %8.3f %12v %10v %8.1f\n",
			string(specs[i].Variant), specs[i].Threads, res.ExecTime,
			float64(res.ExecTime)/ref, res.AMAT.Mean(), res.ReadLat.Percentile(99), res.MPKI)
	}
}
