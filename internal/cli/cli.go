// Package cli is the input layer of the three commands. It binds the
// load flags (-workload, -mix, -arrival, their -file forms and
// -import) onto a flag.FlagSet, registers every file and import once
// through the load registries, and resolves every name before anything
// simulates: a typo lists the valid set, an arrival spec's cohorts
// must resolve too, and a single-run command takes exactly one load
// source. Every error it returns is a usage error; the commands report
// it with Fail.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"skybyte/internal/arrival"
	"skybyte/internal/tenant"
	"skybyte/internal/traceimport"
	"skybyte/internal/workloads"
)

// Source is one load input of an invocation: the flag that gave it
// (without the dash) and its value.
type Source struct{ Flag, Value string }

func (s Source) String() string { return "-" + s.Flag + " " + s.Value }

// kind is the load kind the source names: workload, mix or arrival.
func (s Source) kind() string {
	if s.Flag == "import" {
		return "workload"
	}
	return strings.TrimSuffix(s.Flag, "-file")
}

// loadFlags lists every load flag with its usage in the single-run
// commands and, for the file flags, in the campaign command.
var loadFlags = []struct{ name, single, campaign string }{
	{"workload", "workload name (default ycsb); any of skybyte.WorkloadNames() — Table I, the extension scenarios, or a file-registered workload. A run takes exactly one load source: -workload, -workload-file, -import, -mix, -mix-file, -arrival or -arrival-file", ""},
	{"workload-file", "load the workload from a file (declarative JSON definition or recorded trace; see WORKLOADS.md)",
		"load and register a workload file (JSON definition or recorded trace; repeatable); it joins the campaign unless -workloads selects a subset"},
	{"import", "convert an external trace, <format>:<path> or a bare path with a recognized extension (formats: champsim, damon, cachegrind; champsim accepts a dir/glob of per-CPU files; see WORKLOADS.md)",
		"convert and register an external trace, <format>:<path> (champsim, damon, cachegrind; repeatable); it joins the campaign like a -workload-file"},
	{"mix", "multi-tenant mix instead of a workload: each tenant group replays its own workload (any of skybyte.MixNames())", ""},
	{"mix-file", "load a multi-tenant mix from a JSON file (see WORKLOADS.md)",
		"load and register a multi-tenant mix file (JSON; repeatable); it joins the figmix mix set unless -mix selects a subset"},
	{"arrival", "open-loop arrival spec instead of a workload: client cohorts offer requests at sampled instants (any of skybyte.ArrivalNames())", ""},
	{"arrival-file", "load an open-loop arrival spec from a JSON file (see WORKLOADS.md)",
		"load and register an open-loop arrival spec file (JSON; repeatable); it joins the figopen arrival set unless -arrival selects a subset"},
}

// Inputs collects an invocation's load inputs in command-line order.
type Inputs struct{ sources []Source }

// Bind binds the single-run load flags — every flag of loadFlags —
// onto fs.
func Bind(fs *flag.FlagSet) *Inputs { return bind(fs, false) }

// BindCampaign binds the campaign command's repeatable file flags
// (-workload-file, -import, -mix-file, -arrival-file) onto fs.
func BindCampaign(fs *flag.FlagSet) *Inputs { return bind(fs, true) }

func bind(fs *flag.FlagSet, campaign bool) *Inputs {
	in := &Inputs{}
	for _, f := range loadFlags {
		usage := f.single
		if campaign {
			usage = f.campaign
		}
		if usage == "" {
			continue
		}
		fs.Func(f.name, usage, func(v string) error {
			// An empty value names nothing, as an unset flag.
			if v != "" {
				in.sources = append(in.sources, Source{f.name, v})
			}
			return nil
		})
	}
	return in
}

// Source applies the single-run rule: an invocation names exactly one
// load source, and none means -workload ycsb. A second one is an
// error naming both.
func (in *Inputs) Source() (Source, error) {
	switch len(in.sources) {
	case 0:
		return Source{"workload", "ycsb"}, nil
	case 1:
		return in.sources[0], nil
	}
	return Source{}, fmt.Errorf("%v and %v both name a load; a single run takes exactly one load source", in.sources[0], in.sources[1])
}

// Load is the one load a single-run invocation names, registered and
// resolved. Exactly one of Workload, Mix and Arrival is set.
type Load struct {
	Workload workloads.Spec
	Mix      tenant.Mix
	Arrival  arrival.Spec
}

// Load registers the source's file or import and resolves the load it
// names; an arrival spec's cohorts must resolve too.
func (s Source) Load() (Load, error) {
	var l Load
	name, err := s.register()
	if err != nil {
		return l, err
	}
	switch s.kind() {
	case "workload":
		l.Workload, err = workloads.ByName(name)
	case "mix":
		l.Mix, err = tenant.ByName(name)
	default:
		if l.Arrival, err = arrival.ByName(name); err == nil {
			err = l.Arrival.Resolve()
		}
	}
	return l, err
}

// register registers a file or import source in its registry and
// returns the name it defines; a name source returns its value.
func (s Source) register() (string, error) {
	switch s.Flag {
	case "workload-file":
		w, err := workloads.RegisterFile(s.Value)
		return w.Name, err
	case "import":
		format, path, err := traceimport.ParseSpec(s.Value)
		if err != nil {
			return "", err
		}
		w, err := traceimport.RegisterWorkload(format, path)
		return w.Name, err
	case "mix-file":
		m, err := tenant.RegisterFile(s.Value)
		return m.Name, err
	case "arrival-file":
		a, err := arrival.RegisterFile(s.Value)
		return a.Name, err
	}
	return s.Value, nil
}

// Register registers every file and import of a campaign once, flag
// by flag in loadFlags order, and returns the workload names the
// workload files and then the imports define: the campaign runs its
// workloads in that order. Two inputs defining one name are refused:
// they would silently replace each other (traces recorded or imported
// from one source all load under one name).
func (in *Inputs) Register() ([]string, error) {
	seen := map[string]Source{}
	var defined []string
	for _, f := range loadFlags {
		for _, s := range in.sources {
			if s.Flag != f.name {
				continue
			}
			name, err := s.register()
			if err != nil {
				return nil, err
			}
			key := s.kind() + " " + name
			if prev, ok := seen[key]; ok {
				return nil, fmt.Errorf("%v and %v both define %s %q; rename one (its \"name\" field) or record traces from distinct sources", prev, s, s.kind(), name)
			}
			seen[key] = s
			if s.kind() == "workload" {
				defined = append(defined, name)
			}
		}
	}
	return defined, nil
}

// Resolve checks a campaign's workload, mix and arrival sets before
// anything simulates: every name must resolve, listing the valid set
// when one does not, and so must every arrival spec's cohorts. An
// empty arrival set stands for every registered spec, as in the
// campaign harness.
func Resolve(ws, mixes, arrivals []string) error {
	for _, name := range ws {
		if _, err := workloads.ByName(name); err != nil {
			return err
		}
	}
	for _, name := range mixes {
		if _, err := tenant.ByName(name); err != nil {
			return err
		}
	}
	if len(arrivals) == 0 {
		arrivals = arrival.Names()
	}
	for _, name := range arrivals {
		a, err := arrival.ByName(name)
		if err == nil {
			err = a.Resolve()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Int defines an int flag that refuses values below floor when parsed:
// the flag package reports the error naming the flag, and a command
// parsing flag.CommandLine exits 2.
func Int(fs *flag.FlagSet, name string, value, floor int, usage string) *int {
	v := &minInt{n: value, floor: floor}
	fs.Var(v, name, usage)
	return &v.n
}

type minInt struct{ n, floor int }

func (v *minInt) String() string { return strconv.Itoa(v.n) }

func (v *minInt) Set(s string) error {
	// Base 0 accepts what flag.Int does (0x10, 0o17, 1_000).
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if int(n) < v.floor {
		return fmt.Errorf("must be at least %d", v.floor)
	}
	v.n = int(n)
	return nil
}

// Fail reports a usage error and exits 2, the usage-error status of
// every command (runtime errors exit 1).
func Fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
