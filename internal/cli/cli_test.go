package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skybyte/internal/traceimport"
)

// command builds the flag set of a single-run command as its main
// package does: the load flags plus its range-checked numeric flags.
func command(name string) (*flag.FlagSet, *Inputs) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	in := Bind(fs)
	switch name {
	case "skybyte-sim":
		Int(fs, "threads", 0, 0, "")
		Int(fs, "ssd-dram-mb", 0, 0, "")
		Int(fs, "write-log-kb", 0, 0, "")
	case "skybyte-trace":
		Int(fs, "n", 100000, 1, "")
		Int(fs, "thread", 0, 0, "")
		Int(fs, "nthreads", 1, 1, "")
	}
	return fs, in
}

// load parses args as the named single-run command does and resolves
// its one load: the path every invocation takes before it simulates.
func load(name string, args ...string) (Load, error) {
	fs, in := command(name)
	if err := fs.Parse(args); err != nil {
		return Load{}, err
	}
	src, err := in.Source()
	if err != nil {
		return Load{}, err
	}
	return src.Load()
}

// campaign parses args as skybyte-bench does, registers its files and
// resolves the default sets plus the registered workloads.
func campaign(args ...string) error {
	fs := flag.NewFlagSet("skybyte-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	in := BindCampaign(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := in.Register()
	if err != nil {
		return err
	}
	return Resolve(append([]string{"bc"}, names...), nil, nil)
}

func write(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func workloadJSON(name string) string {
	return fmt.Sprintf(`{"format": 1, "name": %q, "footprint_pages": 64,
		"regions": [{"name": "r", "start": 0, "size": 1}],
		"phases": [{"name": "p", "weight": 1, "ops": [{"op": "load", "region": "r", "kernel": "uniform"}]}]}`, name)
}

func mixJSON(name string) string {
	return fmt.Sprintf(`{"format": 1, "name": %q, "tenants": [{"workload": "ycsb", "threads": 2}]}`, name)
}

func arrivalJSON(name, workload string) string {
	return fmt.Sprintf(`{"format": 1, "name": %q, "cohorts": [{"workload": %q, "threads": 2,
		"process": {"dist": "poisson", "rate": 1000}}]}`, name, workload)
}

func TestInputs(t *testing.T) {
	wfile := write(t, "w.json", workloadJSON("cli-w"))
	mfile := write(t, "m.json", mixJSON("cli-m"))
	afile := write(t, "a.json", arrivalJSON("cli-a", "ycsb"))
	fixture := filepath.Join(t.TempDir(), "src.champsim")
	if err := traceimport.WriteFixture("champsim", fixture); err != nil {
		t.Fatal(err)
	}
	sources := []Source{
		{"workload", "radix"}, {"workload-file", wfile}, {"import", "champsim:" + fixture},
		{"mix", "graph-vs-log"}, {"mix-file", mfile},
		{"arrival", "open-burst"}, {"arrival-file", afile},
	}

	type row struct {
		name string
		run  func() error
		// want lists substrings the error must contain; nil = no error.
		want []string
	}
	var rows []row
	single := func(name, cmd string, want []string, args ...string) {
		rows = append(rows, row{name, func() error { _, err := load(cmd, args...); return err }, want})
	}
	many := func(name string, want []string, args ...string) {
		rows = append(rows, row{name, func() error { return campaign(args...) }, want})
	}

	// The campaign takes any number of files, but two inputs defining
	// one name are refused. These rows run first: a refused arrival
	// file below stays registered, and the campaign resolves them all.
	w2 := write(t, "w2.json", workloadJSON("cli-w2"))
	many("bench two workload files", nil, "-workload-file", wfile, "-workload-file", w2, "-import", "champsim:"+fixture)
	dupW := write(t, "dup.json", workloadJSON("cli-w"))
	many("bench workload files define one name", []string{"-workload-file " + wfile, "-workload-file " + dupW, `workload "cli-w"`}, "-workload-file", wfile, "-workload-file", dupW)
	many("bench imports define one name", []string{"both define workload", "-import champsim:" + fixture}, "-import", "champsim:"+fixture, "-import", fixture)
	dupM := write(t, "dupm.json", mixJSON("cli-m"))
	many("bench mix files define one name", []string{`mix "cli-m"`}, "-mix-file", mfile, "-mix-file", dupM)
	dupA := write(t, "dupa.json", arrivalJSON("cli-a", "tpcc"))
	many("bench arrival files define one name", []string{`arrival "cli-a"`}, "-arrival-file", afile, "-arrival-file", dupA)
	many("bench unknown file", []string{"nosuch.json"}, "-workload-file", "nosuch.json")

	for _, cmd := range []string{"skybyte-sim", "skybyte-trace"} {
		// Every source alone is accepted and resolves.
		for _, s := range sources {
			single(cmd+" "+s.String(), cmd, nil, "-"+s.Flag, s.Value)
		}
		single(cmd+" default", cmd, nil)
		// Every pair of load sources, and one flag given twice, is a
		// usage error naming both.
		for i, a := range sources {
			for _, b := range sources[i+1:] {
				single(cmd+" "+a.String()+" "+b.String(), cmd, []string{"-" + a.Flag, "-" + b.Flag, "exactly one load source"},
					"-"+a.Flag, a.Value, "-"+b.Flag, b.Value)
			}
		}
		single(cmd+" -workload twice", cmd, []string{"-workload ycsb and -workload bc"}, "-workload", "ycsb", "-workload", "bc")
		// Unknown names list the valid set.
		single(cmd+" unknown workload", cmd, []string{`unknown workload "nosuch"`, "valid: bc,"}, "-workload", "nosuch")
		single(cmd+" unknown mix", cmd, []string{`unknown mix "nosuch"`, "valid: graph-vs-log, scan-vs-point"}, "-mix", "nosuch")
		single(cmd+" unknown arrival", cmd, []string{`unknown arrival spec "nosuch"`, "valid: open-steady, open-burst"}, "-arrival", "nosuch")
		// An arrival spec whose cohort names an unknown workload is
		// refused before anything simulates.
		bad := write(t, "bad.json", arrivalJSON("cli-bad", "nosuch"))
		single(cmd+" arrival cohort unknown workload", cmd, []string{`cohort "nosuch"`, `unknown workload "nosuch"`, "valid: bc,"}, "-arrival-file", bad)
	}

	// Out-of-range numeric flags are refused at parse, naming the flag.
	for _, c := range []struct{ cmd, flag, value string }{
		{"skybyte-sim", "ssd-dram-mb", "-1"},
		{"skybyte-sim", "write-log-kb", "-4"},
		{"skybyte-sim", "threads", "-2"},
		{"skybyte-trace", "nthreads", "0"},
		{"skybyte-trace", "nthreads", "-3"},
		{"skybyte-trace", "n", "-5"},
		{"skybyte-trace", "n", "0"},
		{"skybyte-trace", "thread", "-1"},
	} {
		single(c.cmd+" -"+c.flag+" "+c.value, c.cmd, []string{"flag -" + c.flag + ":"}, "-"+c.flag, c.value)
	}
	single("skybyte-trace -nthreads 1 -thread 0", "skybyte-trace", nil, "-nthreads", "1", "-thread", "0")

	for _, r := range rows {
		err := r.run()
		switch {
		case r.want == nil && err != nil:
			t.Errorf("%s: unexpected error: %v", r.name, err)
		case r.want != nil && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", r.name, r.want)
		case err != nil:
			for _, w := range r.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: error %q does not contain %q", r.name, err, w)
				}
			}
		}
	}
}

// TestLoadSelectsItsKind pins which field of a Load each source fills:
// the commands dispatch on it.
func TestLoadSelectsItsKind(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "workload ycsb"},
		{[]string{"-workload", "radix"}, "workload radix"},
		{[]string{"-mix", "scan-vs-point"}, "mix scan-vs-point"},
		{[]string{"-arrival", "open-steady"}, "arrival open-steady"},
	} {
		l, err := load("skybyte-sim", c.args...)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("workload %s", l.Workload.Name)
		switch {
		case l.Mix.Name != "":
			got = "mix " + l.Mix.Name
		case l.Arrival.Name != "":
			got = "arrival " + l.Arrival.Name
		}
		if got != c.want || (l.Mix.Name != "" || l.Arrival.Name != "") && l.Workload.Name != "" {
			t.Errorf("%v: got %s (workload %q), want %s alone", c.args, got, l.Workload.Name, c.want)
		}
	}
}
