// skybyte-trace inspects the workload generators that stand in for the
// paper's PIN traces: it prints a sample of records, summarises the
// stream's characteristics against Table I, records streams to the
// versioned on-disk trace format for later replay, and imports
// externally produced traces — ChampSim, DAMON, cachegrind — into the
// same format (WORKLOADS.md).
//
// Example:
//
//	skybyte-trace -workload bc -n 200000
//	skybyte-trace -workload radix -dump 30
//	skybyte-trace -workload ycsb -nthreads 24        # all 24 streams, analysed in parallel
//	skybyte-trace -workload-file my-workload.json -n 50000
//	skybyte-trace -mix graph-vs-log                  # per-tenant stream summary
//
// Record and replay: -record captures the deterministic streams to a
// file; the file then loads as a workload anywhere (-workload-file on
// any CLI, skybyte.WorkloadFromFile) and replays record for record —
// re-recording a replay reproduces the file bit for bit, and a replay
// cut at the same instruction budget reproduces a simulation's Result
// bit for bit:
//
//	skybyte-trace -workload ycsb -nthreads 24 -record-instr 16000 -record ycsb.trc
//	skybyte-sim -workload-file ycsb.trc -variant SkyByte-Full -threads 24 -instr 16000
//
// Files are written in the block-compressed v2 container by default;
// -trace-version 1 emits the flat legacy layout (both replay
// identically; v2 streams with bounded memory and is roughly a third
// of the size).
//
// Import: -import <format>:<path> converts an external trace and
// either records it (-record) or analyses it like any workload. A bare
// path works too when its extension names the format (unrecognized
// extensions fail loudly with the valid set — never a silent guess).
// For champsim, the path may be a directory or glob of per-CPU trace
// files; each file becomes one real thread stream. The converted file
// carries provenance meta (source name, sha256, converter revision)
// and loads as workload "trace:<format>:<source>":
//
//	skybyte-trace -import champsim:600.perlbench.bin -record perlbench.trc
//	skybyte-trace -import 'champsim:traces/cpu*.champsimtrace' -record perlbench-4cpu.trc
//	skybyte-sim -workload-file perlbench.trc -variant SkyByte-Full
//	skybyte-trace -import damon:damon-raw.txt          # analyse without recording
//
// -make-fixture <format>:<path> writes a tiny synthetic source file in
// an external format (the importer test/CI fixture generator, handy
// for trying the pipeline without a real trace).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"skybyte"
	"skybyte/internal/arrival"
	"skybyte/internal/cli"
	"skybyte/internal/mem"
	"skybyte/internal/stats"
	"skybyte/internal/store"
	"skybyte/internal/telemetry"
	"skybyte/internal/trace"
	"skybyte/internal/traceimport"
)

// summary is one thread stream's measured characteristics.
type summary struct {
	thread    int
	kinds     map[trace.Kind]uint64
	instrs    uint64
	pageLines map[uint64]uint64 // page touched -> line bitmask
}

// analyze drains up to n records of one thread's stream. Streams are
// independent deterministic generators, so distinct threads may be
// analysed concurrently.
func analyze(w skybyte.Workload, thread int, seed uint64, n, dump int) summary {
	st := w.Stream(thread, seed)
	s := summary{
		thread:    thread,
		kinds:     map[trace.Kind]uint64{},
		pageLines: map[uint64]uint64{},
	}
	dumped := 0
	for i := 0; i < n; i++ {
		r, ok := st.Next()
		if !ok {
			break
		}
		if dumped < dump {
			fmt.Printf("%6d  %-8s", i, r.Kind)
			if r.Kind == trace.Compute {
				fmt.Printf("  n=%d\n", r.N)
			} else {
				fmt.Printf("  %#x (page %d, line %d)\n", uint64(r.Addr), r.Addr.PageNumber(), r.Addr.LineIndex())
			}
			dumped++
		}
		s.kinds[r.Kind]++
		s.instrs += r.Instructions()
		if r.Kind != trace.Compute {
			s.pageLines[r.Addr.PageNumber()] |= 1 << r.Addr.LineIndex()
		}
	}
	return s
}

func (s summary) memOps() uint64 {
	return s.kinds[trace.Load] + s.kinds[trace.LoadDep] + s.kinds[trace.Store]
}

// merge folds stream summaries into one: counts add, line masks unite.
func merge(sums []summary) summary {
	m := summary{kinds: map[trace.Kind]uint64{}, pageLines: map[uint64]uint64{}}
	for _, s := range sums {
		for k, v := range s.kinds {
			m.kinds[k] += v
		}
		m.instrs += s.instrs
		for p, mask := range s.pageLines {
			m.pageLines[p] |= mask
		}
	}
	return m
}

// stream names one thread stream of a workload.
type stream struct {
	w      skybyte.Workload
	thread int
}

// analyzeStreams drains every stream (up to n records each) across a
// bounded worker pool of parallel goroutines (0 = GOMAXPROCS); the
// summaries return in stream order regardless of completion order.
func analyzeStreams(streams []stream, seed uint64, n, parallel int) []summary {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	sums := make([]summary, len(streams))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			sums[i] = analyze(st.w, st.thread, seed, n, 0)
			<-sem
		}()
	}
	wg.Wait()
	return sums
}

func main() {
	in := cli.Bind(flag.CommandLine)
	var (
		n        = cli.Int(flag.CommandLine, "n", 100000, 1, "records to analyse (or record) per thread")
		dump     = flag.Int("dump", 0, "records to print verbatim (single-thread mode only)")
		thread   = cli.Int(flag.CommandLine, "thread", 0, 0, "thread id")
		nthreads = cli.Int(flag.CommandLine, "nthreads", 1, 1, "analyse (or record) this many thread streams (ids 0..n-1)")
		parallel = flag.Int("parallel", 0, "streams analysed concurrently (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		record   = flag.String("record", "", "record the streams to this trace file instead of analysing; with -import, the full conversion")
		recInstr = flag.Uint64("record-instr", 0, "with -record: cut each stream at this instruction budget (matching a simulation's -instr) instead of at -n records")
		recVer   = flag.Int("trace-version", trace.CodecVersion, "with -record: trace codec version to emit (1 = flat legacy, 2 = block-compressed streaming)")
		fixture  = flag.String("make-fixture", "", "write a tiny synthetic external-format source file, <format>:<path>, then exit (importer demo/CI fixture)")
		checkTL  = flag.String("check-timeline", "", "validate a Chrome trace-event timeline written by skybyte-sim -timeline (JSON shape and per-track span nesting), then exit; a violation is a non-zero exit")
	)
	flag.Parse()

	if *checkTL != "" {
		data, err := os.ReadFile(*checkTL)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spans, tracks, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *checkTL, err)
			os.Exit(1)
		}
		fmt.Printf("timeline OK: %d spans across %d tracks, spans nest within every track\n", spans, tracks)
		return
	}

	if *fixture != "" {
		format, path, err := traceimport.ParseSpec(*fixture)
		if err == nil {
			err = traceimport.WriteFixture(format, path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote synthetic %s fixture to %s\n", format, path)
		fmt.Printf("import with: skybyte-trace -import %s:%s -record %s.trc\n", format, path, path)
		return
	}

	src, err := in.Source()
	if err != nil {
		cli.Fail(err)
	}
	// Which cut flags were given explicitly matters for recording:
	// defaults mean "reproduce the source exactly".
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if src.Flag == "import" && *record != "" {
		// Convert an external trace straight to a .trc: the records
		// pass through verbatim (no cut), with provenance meta sealed
		// into the file. Cut flags would be silently meaningless here,
		// so refuse them — record the full conversion, then re-record
		// the .trc with -workload-file and the desired cut.
		for _, f := range []string{"n", "record-instr", "nthreads", "seed", "thread"} {
			if explicit[f] {
				cli.Fail(fmt.Errorf("-import -record writes the full conversion verbatim; -%s does not apply (record first, then re-record the .trc with -workload-file and your cut)", f))
			}
		}
		if err := recordImport(src.Value, *record, *recVer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// Anything else registers (an import is converted and analysed like
	// any workload) and resolves before a stream is drawn.
	load, err := src.Load()
	if err != nil {
		cli.Fail(err)
	}
	switch {
	case load.Arrival.Name != "":
		if *record != "" {
			cli.Fail(fmt.Errorf("-record captures workload streams; an arrival spec paces them but generates no records"))
		}
		analyzeArrival(load.Arrival, *n, *seed)
		return
	case load.Mix.Name != "":
		if *record != "" {
			cli.Fail(fmt.Errorf("-record captures one workload's streams; record each tenant's workload separately"))
		}
		analyzeMix(load.Mix, *n, *seed, *parallel)
		return
	}
	w := load.Workload

	if *record != "" {
		if err := recordTrace(w, *record, *nthreads, *n, *recInstr, *seed, *recVer, explicit); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var sums []summary
	if *nthreads > 1 {
		streams := make([]stream, *nthreads)
		for t := range streams {
			streams[t] = stream{w, t}
		}
		sums = analyzeStreams(streams, *seed, *n, *parallel)
	} else {
		sums = []summary{analyze(w, *thread, *seed, *n, *dump)}
	}

	fmt.Printf("\nworkload %s (%s, paper footprint %.2fGB, paper MPKI %.1f)\n",
		w.Name, w.Suite, w.PaperFootprintGB, w.PaperMPKI)
	if *nthreads > 1 {
		fmt.Printf("%-8s %12s %12s %10s %8s\n", "thread", "instrs", "mem ops", "stores", "pages")
		for _, s := range sums {
			fmt.Printf("%-8d %12d %12d %10d %8d\n", s.thread, s.instrs, s.memOps(), s.kinds[trace.Store], len(s.pageLines))
		}
	}

	all := merge(sums)
	kinds, memOps := all.kinds, all.memOps()
	fmt.Printf("instructions     %d (%d records/thread, %d threads)\n", all.instrs, *n, len(sums))
	fmt.Printf("memory ops       %d (%.1f per 100 instr)\n", memOps, 100*float64(memOps)/float64(all.instrs))
	totalLoads := kinds[trace.Load] + kinds[trace.LoadDep]
	depFrac := 0.0
	if totalLoads > 0 {
		depFrac = float64(kinds[trace.LoadDep]) / float64(totalLoads)
	}
	fmt.Printf("  loads          %d (%.1f%% dependent/pointer-chasing)\n", totalLoads, 100*depFrac)
	fmt.Printf("  stores         %d (write ratio %.1f%%, Table I: %.0f%%)\n",
		kinds[trace.Store], 100*float64(kinds[trace.Store])/float64(memOps), 100*w.WriteRatio)
	fmt.Printf("pages touched    %d of %d footprint (%s)\n", len(all.pageLines), w.FootprintPages, stats.FormatGB(w.FootprintBytes()))

	// Spatial sparsity: the Fig. 5/6 style line-usage distribution.
	var dist stats.Distribution
	for _, mask := range all.pageLines {
		dist.Add(float64(popcount(mask)) / float64(mem.LinesPerPage))
	}
	fmt.Printf("line usage/page  mean %.1f%% of 64 lines; %.0f%% of pages use <=25%% of lines\n",
		100*dist.Mean(), 100*dist.FractionAtOrBelow(0.25))
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// analyzeMix summarises every tenant's streams of a multi-tenant mix:
// one aggregate row per tenant (its Threads streams at its thread
// count), so the interference study's inputs can be inspected before a
// simulation runs. Rows print in tenant order.
func analyzeMix(m skybyte.Mix, n int, seed uint64, parallel int) {
	var streams []stream
	for _, td := range m.Tenants {
		w, err := skybyte.WorkloadByName(td.Workload)
		if err != nil {
			cli.Fail(err)
		}
		for k := 0; k < td.Threads; k++ {
			streams = append(streams, stream{w, k})
		}
	}
	sums := analyzeStreams(streams, seed, n, parallel)

	fmt.Printf("\nmix %s (%d tenants, %d threads, %d records/thread)\n",
		m.Name, len(m.Tenants), m.TotalThreads(), n)
	fmt.Printf("%-10s %-12s %8s %12s %12s %10s %8s %10s\n",
		"tenant", "workload", "threads", "instrs", "mem ops", "stores", "pages", "write%")
	for _, td := range m.Tenants {
		t := merge(sums[:td.Threads])
		sums = sums[td.Threads:]
		memOps, stores := t.memOps(), t.kinds[trace.Store]
		name := td.Name
		if name == "" {
			name = td.Workload
		}
		wr := 0.0
		if memOps > 0 {
			wr = float64(stores) / float64(memOps)
		}
		fmt.Printf("%-10s %-12s %8d %12d %12d %10d %8d %9.1f%%\n",
			name, td.Workload, td.Threads, t.instrs, memOps, stores, len(t.pageLines), 100*wr)
	}
}

// analyzeArrival summarises an open-loop arrival spec: each cohort's
// process parameters (rate, analytic CV, schedule shape) next to
// statistics measured from n sampled interarrival gaps of the cohort's
// first gate, so the traffic an open-loop run will offer can be
// inspected before any simulation.
func analyzeArrival(a skybyte.Arrival, n int, seed uint64) {
	threads, err := a.TotalThreads()
	if err != nil {
		cli.Fail(err)
	}
	fmt.Printf("\narrival %s (%d cohorts, %d threads, %d gaps sampled/cohort)\n",
		a.Name, len(a.Cohorts), threads, n)
	fmt.Printf("%-10s %-12s %8s %-8s %-14s %8s %10s %12s %12s %8s %8s\n",
		"cohort", "generator", "threads", "class", "process", "windows", "rps/thread", "mean gap", "sampled", "cv", "sampled")
	for _, c := range a.Cohorts {
		gen := c.Workload
		if c.Mix != "" {
			gen = "mix:" + c.Mix
		}
		proc := c.Process.Dist
		if c.Process.Shape != 0 {
			proc = fmt.Sprintf("%s(k=%g)", c.Process.Dist, c.Process.Shape)
		}
		g := arrival.NewGen(c.Process, c.Windows, 1, seed)
		var prev, sum, sumSq float64
		for i := 0; i < n; i++ {
			t := g.Next().Seconds()
			gap := t - prev
			prev = t
			sum += gap
			sumSq += gap * gap
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		cv := 0.0
		if mean > 0 && variance > 0 {
			cv = math.Sqrt(variance) / mean
		}
		eff := c.Process.Rate * arrival.MeanScale(c.Windows)
		fmt.Printf("%-10s %-12s %8d %-8s %-14s %8d %10.0f %12s %12s %8.2f %8.2f\n",
			c.Name, gen, c.Threads, c.Class, proc, len(c.Windows), eff,
			fmtSeconds(1/eff), fmtSeconds(mean), c.Process.CV(), cv)
	}
}

// fmtSeconds renders a duration given in seconds at µs resolution.
func fmtSeconds(s float64) string { return fmt.Sprintf("%.1fµs", s*1e6) }

// recordTrace captures nthreads deterministic streams and writes them
// in the versioned on-disk trace format. Streams are cut at maxRecords
// records, or — with a -record-instr budget — at exactly that many
// instructions per thread (the same trace.Limited clipping a
// simulation applies, so replaying the file at the same budget
// reproduces the run's Result bit for bit). Re-recording a trace-backed
// workload preserves the source metadata (including import
// provenance), and with -nthreads, -n, -record-instr, and
// -trace-version left at their defaults the source's thread count,
// cuts, and codec version are inherited too, so a plain re-record
// reproduces the source file bit for bit.
func recordTrace(w skybyte.Workload, path string, nthreads, maxRecords int, instrBudget, seed uint64, version int, explicit map[string]bool) error {
	tr := &trace.Trace{Meta: trace.Meta{
		Workload:       w.Name,
		Seed:           seed,
		FootprintPages: w.FootprintPages,
		WriteRatio:     w.WriteRatio,
		InstrPerThread: instrBudget,
	}}
	if w.Trace != nil {
		src := w.Trace.Data.TraceMeta()
		tr.Meta.Workload = src.Workload
		tr.Meta.Seed = src.Seed
		tr.Meta.Origin = src.Origin
		if !explicit["record-instr"] && !explicit["n"] {
			// No new cut at all: the source records pass through
			// verbatim (never truncate), so the source's recorded
			// budget still describes them. With an explicit -n the cut
			// is a record count and InstrPerThread correctly stays 0.
			tr.Meta.InstrPerThread = src.InstrPerThread
			maxRecords = math.MaxInt
		}
		if !explicit["nthreads"] {
			nthreads = w.Trace.Data.NumThreads()
		}
		if !explicit["trace-version"] && w.Trace.Data.FileVersion() != 0 {
			version = w.Trace.Data.FileVersion()
		}
	}
	for t := 0; t < nthreads; t++ {
		var st trace.Stream = w.Stream(t, seed)
		limit := maxRecords
		if instrBudget > 0 {
			st = &trace.Limited{Src: st, Budget: instrBudget}
			limit = math.MaxInt
		}
		tr.Threads = append(tr.Threads, trace.RecordStream(st, limit))
	}
	data, err := trace.EncodeTraceVersion(tr, version)
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d threads, %d records, %d bytes (%s)\n",
		path, len(tr.Threads), tr.Records(), len(data), trace.TraceDigest(data))
	fmt.Printf("replay with: skybyte-sim -workload-file %s\n", path)
	return nil
}

// recordImport converts an external trace (-import <format>:<path>)
// and writes the result as a .trc, provenance meta included. Records
// stream from the parser straight into the block writer, so importing
// a multi-gigabyte published trace needs memory for the encoded
// output, not for the record stream.
func recordImport(spec, out string, version int) error {
	format, src, err := traceimport.ParseSpec(spec)
	if err != nil {
		return err
	}
	enc, err := traceimport.ImportEncoded(format, src, version)
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(out, enc.Data); err != nil {
		return err
	}
	o := enc.Meta.Origin
	fmt.Printf("imported %s %s: %d threads, %d records, %d pages touched\n",
		format, src, enc.Threads, enc.Records, enc.Meta.FootprintPages)
	fmt.Printf("recorded %s: %d bytes (%s; source sha256 %s)\n",
		out, len(enc.Data), trace.TraceDigest(enc.Data), o.SourceDigest[:16])
	fmt.Printf("replay with: skybyte-sim -workload-file %s\n", out)
	return nil
}
