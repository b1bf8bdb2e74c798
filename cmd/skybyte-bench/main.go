// skybyte-bench regenerates the paper's evaluation — every table and
// figure — the counterpart of the artifact's artifact_run.sh +
// artifact_draw_figs.sh pipeline.
//
// Examples:
//
//	skybyte-bench                      # everything, all cores, default budget
//	skybyte-bench -figure fig14        # just the headline comparison
//	skybyte-bench -parallel 1          # sequential (same bytes, slower)
//	skybyte-bench -workloads bc,ycsb -instr 200000
//	skybyte-bench -figure figext       # the extension scenarios (WORKLOADS.md)
//	skybyte-bench -figure figmix       # multi-tenant fairness/interference study
//	skybyte-bench -figure figmix -mix-file mix.json -mix my-mix
//	skybyte-bench -figure figopen      # open-loop traffic study (arrival processes)
//	skybyte-bench -figure figopen -arrival-file traffic.json -arrival my-traffic
//	skybyte-bench -figure figfleet     # cluster-scale fleet K-sweep (DESIGN.md §9)
//	skybyte-bench -figure figfleet -devices 1,4 -placement striped,hotcold
//	skybyte-bench -workload-file my.json          # file workload joins the campaign
//	skybyte-bench -workload-file my.json -workloads my-name -figure fig14
//	skybyte-bench -config              # print the Table II configurations
//
// With -cache-dir, executed design points persist in a
// content-addressed result store: a repeated invocation recalls them
// instead of re-simulating (zero simulations, identical bytes). The
// store also makes campaigns shardable across processes or machines:
//
//	skybyte-bench -cache-dir .cache -shard 0/2   # machine A
//	skybyte-bench -cache-dir .cache -shard 1/2   # machine B
//	skybyte-bench -cache-dir .cache -from-cache  # render, zero simulations
//
// -fingerprint prints the campaign's store identity (for external
// cache keys, e.g. CI's actions/cache).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"skybyte"
	"skybyte/internal/cli"
	"skybyte/internal/experiments"
	"skybyte/internal/fleet"
	"skybyte/internal/runner"
	"skybyte/internal/stats"
	"skybyte/internal/system"
)

func main() {
	in := cli.BindCampaign(flag.CommandLine)
	var (
		mixCSV      = flag.String("mix", "", "comma-separated mix subset for the figmix fairness table (default: all built-in and -mix-file mixes)")
		devCSV      = flag.String("devices", "", "comma-separated device counts for the figfleet K-sweep (default: 1,2,4,8; each 1..16)")
		placeCSV    = flag.String("placement", "", "comma-separated placement-policy subset for the figfleet sweep (default: striped,capacity,hotcold)")
		arrCSV      = flag.String("arrival", "", "comma-separated arrival-spec subset for the figopen open-loop table (default: all built-in and -arrival-file specs)")
		tenantRows  = flag.Bool("tenant-rows", false, "extend figures 14/16/17 with per-tenant rows: each -mix runs co-located and every tenant contributes a mix/tenant row")
		telRows     = flag.Bool("telemetry", false, "time-resolved figopen: sample in-simulator probes during every open-loop run and report write-log occupancy and per-class windowed p99 per intensity window")
		figure      = flag.String("figure", "all", "experiment to run: all, "+strings.Join(experiments.IDs(), ", "))
		workloadCSV = flag.String("workloads", "", "comma-separated workload subset (default: all of Table I, plus any -workload-file)")
		instr       = flag.Uint64("instr", 0, "total instructions per run (default 384000)")
		parallel    = flag.Int("parallel", 0, "simulations in flight at once (0 = GOMAXPROCS, 1 = sequential; tables are identical either way)")
		progress    = flag.Bool("progress", false, "report batch progress as runs complete")
		verbose     = flag.Bool("v", false, "log each simulation as it completes")
		showCfg     = flag.Bool("config", false, "print the Table II configurations and exit")
		cacheDir    = flag.String("cache-dir", "", "persist results in a content-addressed store rooted here; cached design points are recalled, not re-simulated")
		shard       = flag.String("shard", "", "execute only slice i of n (format i/n, 0-based) of the campaign into -cache-dir; render later with -from-cache")
		fromCache   = flag.Bool("from-cache", false, "render exclusively from -cache-dir: a missing design point is an error, never a re-simulation")
		fingerprint = flag.Bool("fingerprint", false, "print the campaign's store fingerprint (config+seed identity) and exit")
	)
	flag.Parse()

	if *showCfg {
		printConfigs()
		return
	}

	// Register every file before anything resolves names or computes
	// spec keys: the runner's source-folded keys snapshot each
	// definition, which is what keeps a store warm across re-runs of the
	// same file and re-colds exactly the affected entries after an edit.
	fileNames, err := in.Register()
	if err != nil {
		cli.Fail(err)
	}

	opt := experiments.DefaultOptions()
	if *instr > 0 {
		opt.TotalInstr = *instr
		opt.SweepInstr = *instr / 2
	}
	if *workloadCSV != "" {
		opt.Workloads = strings.Split(*workloadCSV, ",")
	} else {
		// File workloads join the default campaign: every figure runs
		// them next to the Table I seven.
		opt.Workloads = append(opt.Workloads, fileNames...)
	}
	if *mixCSV != "" {
		opt.Mixes = strings.Split(*mixCSV, ",")
	}
	if *arrCSV != "" {
		opt.Arrivals = strings.Split(*arrCSV, ",")
	}
	opt.TenantRows = *tenantRows
	opt.Telemetry = *telRows
	// The figfleet axes reject unknown values upfront listing the valid
	// set, like every other name flag: a typo must not leave a partially
	// executed campaign behind.
	if *devCSV != "" {
		opt.FleetDevices = nil
		for _, field := range strings.Split(*devCSV, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(field))
			if err == nil {
				err = fleet.Validate(k, "")
			}
			if err != nil {
				cli.Fail(fmt.Errorf("-devices %q: %w", field, err))
			}
			opt.FleetDevices = append(opt.FleetDevices, k)
		}
	}
	if *placeCSV != "" {
		opt.FleetPlacements = nil
		for _, field := range strings.Split(*placeCSV, ",") {
			p, err := fleet.ParsePolicy(strings.TrimSpace(field))
			if err != nil {
				cli.Fail(err)
			}
			opt.FleetPlacements = append(opt.FleetPlacements, string(p))
		}
	}
	// Resolve every workload, mix and arrival name before any
	// simulation runs: a typo must not leave a partially executed
	// campaign behind.
	if err := cli.Resolve(opt.Workloads, opt.Mixes, opt.Arrivals); err != nil {
		cli.Fail(err)
	}
	if *figure != "all" && !slices.Contains(experiments.IDs(), *figure) {
		cli.Fail(fmt.Errorf("unknown figure %q; one of: all %s", *figure, strings.Join(experiments.IDs(), " ")))
	}
	opt.Parallelism = *parallel

	if *fingerprint {
		fmt.Println(skybyte.CampaignFingerprint(opt))
		return
	}

	opt.CacheDir = *cacheDir
	opt.FromCache = *fromCache
	if opt.FromCache && opt.CacheDir == "" {
		cli.Fail(fmt.Errorf("-from-cache requires -cache-dir"))
	}
	if *shard != "" {
		if opt.CacheDir == "" {
			cli.Fail(fmt.Errorf("-shard requires -cache-dir (an unpersisted shard is wasted work)"))
		}
		if opt.FromCache {
			cli.Fail(fmt.Errorf("-shard executes, -from-cache renders; use one at a time"))
		}
		if *figure != "all" {
			cli.Fail(fmt.Errorf("-shard slices the full campaign; it cannot be combined with -figure"))
		}
		var err error
		if opt.Shard, opt.ShardCount, err = runner.ParseShard(*shard); err != nil {
			cli.Fail(fmt.Errorf("-shard: %w", err))
		}
	}
	if opt.CacheDir != "" {
		if err := os.MkdirAll(opt.CacheDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cannot create -cache-dir: %v\n", err)
			os.Exit(1)
		}
	}

	if *progress {
		opt.Progress = func(done, total int, key string) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, total, key)
		}
	}
	h := experiments.NewHarness(opt)
	if *verbose {
		h.Verbose = func(key string, r *system.Result) {
			fmt.Fprintf(os.Stderr, "  ran %-60s exec=%v\n", key, r.ExecTime)
		}
	}

	start := time.Now()
	switch {
	case *shard != "":
		// Verbose fires once per actual simulation (store recalls are
		// silent), so the count distinguishes real work from a warm
		// no-op re-run of the shard.
		var sims atomic.Int64
		userVerbose := h.Verbose
		h.Verbose = func(key string, r *system.Result) {
			sims.Add(1)
			if userVerbose != nil {
				userVerbose(key, r)
			}
		}
		processed, total, err := h.RunShard(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("shard %d/%d: %d of %d design points into %s (%d simulated, %d recalled)\n",
			opt.Shard, opt.ShardCount, processed, total, opt.CacheDir, sims.Load(), int64(processed)-sims.Load())
	case *figure == "all":
		tables, err := h.AllErr(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	default:
		tab, err := h.Render(context.Background(), *figure)
		if err != nil {
			// The id was validated upfront, so this is a runtime failure
			// (e.g. a store miss under -from-cache), not a usage error.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "completed in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), workers)
}

func printConfigs() {
	for _, c := range []struct {
		name string
		cfg  skybyte.Config
	}{{"ScaledConfig (1/64, used by benches)", skybyte.ScaledConfig()}, {"PaperConfig (Table II verbatim)", skybyte.PaperConfig()}} {
		cfg := c.cfg
		fmt.Printf("%s:\n", c.name)
		fmt.Printf("  CPU        %d cores, %d-entry ROB, %d MSHRs; L1 %s/%dw L2 %s/%dw LLC %s/%dw\n",
			cfg.Cores, cfg.CPU.ROB, cfg.CPU.MLP,
			stats.FormatGB(uint64(cfg.L1Bytes)), cfg.L1Ways,
			stats.FormatGB(uint64(cfg.L2Bytes)), cfg.L2Ways,
			stats.FormatGB(uint64(cfg.LLCBytes)), cfg.LLCWays)
		fmt.Printf("  flash      %s (%d ch x %d chips x %d dies x %d blk x %d pg), tR=%v tProg=%v tBERS=%v\n",
			stats.FormatGB(cfg.Geometry.Bytes()), cfg.Geometry.Channels, cfg.Geometry.ChipsPerChan,
			cfg.Geometry.DiesPerChip, cfg.Geometry.BlocksPerPlane, cfg.Geometry.PagesPerBlock,
			cfg.Timing.Read, cfg.Timing.Program, cfg.Timing.Erase)
		fmt.Printf("  SSD DRAM   %s total (write log %s); host promotion budget %s\n",
			stats.FormatGB(uint64(cfg.SSDDRAMBytes)), stats.FormatGB(uint64(cfg.WriteLogBytes)),
			stats.FormatGB(uint64(cfg.PromotedMaxBytes)))
		fmt.Printf("  OS         policy %s, switch cost %v, trigger threshold %v\n\n",
			cfg.Policy, cfg.CtxSwitchCost, cfg.HintThreshold)
	}
}
