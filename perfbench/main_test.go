package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"skybyte/internal/system"
)

// tiny shrinks each workload so the self-test runs in seconds.
var tiny = map[string]size{
	"ycsb-full":         {instr: 48_000, recalls: 3, setups: 1},
	"radix-base-replay": {instr: 32_000, recalls: 3, setups: 1},
	"campaign-p1":       {campaign: []string{"bc"}, total: 9_600, sweep: 4_800, warm: 1, setups: 2},
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// runTiny runs workload name at its tiny size and returns the printed
// metadata and result lines.
func runTiny(t *testing.T, name string, traced bool, corrupt func(*system.Result)) (meta map[string]any, res result) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	o := options{seed: 3, budget: time.Nanosecond, traced: traced, dir: t.TempDir(), size: tiny[name], corrupt: corrupt}
	rep, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printReport(&buf, name, o, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a metadata and a result line, got %d lines", len(lines))
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	return meta, res
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// TestEveryMetricPrinted runs each workload untraced and traced and
// checks that the result line names exactly the metrics BENCHMARK.json
// declares, with their units, that the checks ran and passed, and that
// the metadata line carries the digest and counters.
func TestEveryMetricPrinted(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			meta, res := runTiny(t, name, traced, nil)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, n, m, unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (%v)",
					name, traced, res.Correct, res.Attempted, res.Failed, meta["failures"])
			}
			if checks, _ := meta["checks"].(float64); checks < float64(res.Attempted) {
				t.Errorf("%s traced=%v: %v checks for %d operations", name, traced, meta["checks"], res.Attempted)
			}
			if d, _ := meta["digest"].(string); len(d) != 64 {
				t.Errorf("%s traced=%v: digest %q", name, traced, d)
			}
			counters, _ := meta["counters"].(map[string]any)
			for _, c := range deterministic {
				if _, ok := counters[c]; !ok {
					t.Errorf("%s traced=%v: counter %s missing from the metadata", name, traced, c)
				}
			}
		}
	}
}

// TestCountersRepeat checks that the digest and the deterministic
// counters repeat exactly for a seed.
func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"ycsb-full", "radix-base-replay"} {
		a, _ := runTiny(t, name, false, nil)
		b, _ := runTiny(t, name, false, nil)
		ja, _ := json.Marshal([]any{a["digest"], a["counters"]})
		jb, _ := json.Marshal([]any{b["digest"], b["counters"]})
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: digest or counters differ between runs of one seed:\n%s\n%s", name, ja, jb)
		}
	}
}

// TestCorruptResultFails corrupts simulated results and checks that
// every workload counts a failed operation and reports incorrect.
func TestCorruptResultFails(t *testing.T) {
	corruptions := map[string]func() func(*system.Result){
		// The second result's execution time changes: only the
		// repetition, replay and cold-versus-warm checks can see it.
		"exec-time": func() func(*system.Result) {
			n := 0
			return func(r *system.Result) {
				if n++; n == 2 {
					r.ExecTime++
				}
			}
		},
		// The first result loses an instruction.
		"instructions": func() func(*system.Result) {
			n := 0
			return func(r *system.Result) {
				if n++; n == 1 {
					r.Instructions--
				}
			}
		},
	}
	for _, name := range workloadNames() {
		for what, corrupt := range corruptions {
			_, res := runTiny(t, name, true, corrupt())
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s with corrupted %s: correct=%v failed=%d, want a failure", name, what, res.Correct, res.Failed)
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "ycsb-full", "--seconds", "0"},
		{"--workload", "ycsb-full", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives [1.8125, 3.75, 5.625] here.
	xs := []float64{3.5, 1.25, 9, 4, 4.5, 2}
	if got, want := spread(xs), (5.625-1.8125)/3.75; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{1, 2, 3}); got != 1 {
		t.Errorf("spread of 1,2,3 = %v, want 1", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"skybyte/internal/cachesim.(*Cache).Fill":                   "cachesim",
		"skybyte/internal/sim.(*Engine).Run":                        "sim",
		"skybyte/internal/sim.push[go.shape.*skybyte/internal/x.T]": "sim",
		"skybyte/internal/tenant.ByName":                            "other",
		"runtime.mallocgc":                                          "go.runtime",
		"internal/runtime/maps.(*Map).getWithKey":                   "go.runtime",
		"encoding/json.(*decodeState).object":                       "go.stdlib",
		"compress/flate.(*decompressor).huffmanBlock":               "go.stdlib",
		"main.spin": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestParseCPUProfile decodes a real CPU profile of a busy loop.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The package under test may be named main or by its import path.
	spinName := ""
	for _, s := range p.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".spin") {
				spinName = f
			}
		}
	}
	if p.totalSeconds() <= 0 || p.selfSeconds()["other"] <= 0 || p.cumSeconds(spinName) <= 0 {
		t.Errorf("busy loop not attributed: total %v, self %v, spin %q", p.totalSeconds(), p.selfSeconds(), spinName)
	}
}
