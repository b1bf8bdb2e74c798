// Package identity_test pins the cache identities every persistent
// result store is keyed by, and the equivalence of the runner's
// execute path with the public direct-run entry points. It lives in a
// package of its own because the registry fingerprints depend on the
// process-wide registration state: nothing here registers a workload,
// mix or arrival spec, so the pinned values are the built-ins' alone.
package identity_test

import (
	"context"
	"testing"

	"skybyte"
	"skybyte/internal/arrival"
	"skybyte/internal/runner"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// TestGoldenIdentity pins exact spec keys, registry fingerprints and
// the campaign fingerprint. A change to any of these strings cools
// every warm store that holds the affected entries, so it must be a
// deliberate version bump, never a side effect of refactoring the
// code that computes them.
func TestGoldenIdentity(t *testing.T) {
	keys := []struct {
		spec runner.Spec
		want string
	}{
		{runner.Spec{Workload: "ycsb", Variant: system.SkyByteFull, TotalInstr: 24000, Threads: 24},
			"ycsb|SkyByte-Full|24000|24||src=1afd254d80c059fc"},
		{runner.Spec{Workload: "bc", Variant: system.BaseCSSD, TotalInstr: 24000, Threads: 8, Tag: "x", Devices: 4, Placement: "hotcold"},
			"bc|Base-CSSD|24000|8|x|fleet=4:hotcold|src=271a7370c1a6f1ee"},
		{runner.Spec{Mix: "graph-vs-log", Variant: system.SkyByteFull, TotalInstr: 64000, Threads: 8},
			"mix:graph-vs-log|SkyByte-Full|64000|8||src=ef332421d77daed3"},
		{runner.Spec{Arrival: "open-steady", ArrivalScale: 2, Variant: system.BaseCSSD, TotalInstr: 36000},
			"arr:open-steady@2|Base-CSSD|36000|0||src=a4c2c1196a53a332"},
		{runner.Spec{Workload: "no-such", Variant: system.BaseCSSD, TotalInstr: 24000, Threads: 8},
			"no-such|Base-CSSD|24000|8||src=unresolved"},
	}
	for _, k := range keys {
		if got := k.spec.Key(); got != k.want {
			t.Errorf("Key() = %q, want %q", got, k.want)
		}
	}
	fingerprints := []struct{ name, got, want string }{
		{"workloads.RegistryFingerprint", workloads.RegistryFingerprint(),
			"a7aeaed1e01d1e2f87525a6d112a107124a5ee6ee9666b7e83b9fed63f176e98"},
		{"tenant.RegistryFingerprint", tenant.RegistryFingerprint(),
			"f07a4d4dc8a65212cf11e39cc0cb17ea3147145f91d383284ac706915a6b474d"},
		{"arrival.RegistryFingerprint", arrival.RegistryFingerprint(),
			"26394bcc35de3997aead419986ecbeb95505f2454885bde82110c189da65f074"},
		{"CampaignFingerprint", skybyte.CampaignFingerprint(skybyte.DefaultExperimentOptions()),
			"v5-388c0461bf0fbf68ee150b3bc7c4f17e37255b084df70b97bf8f4e430ba88f4a"},
	}
	for _, f := range fingerprints {
		if f.got != f.want {
			t.Errorf("%s() = %q, want %q", f.name, f.got, f.want)
		}
	}
}

// TestRunnerMatchesDirectRuns: a design point executed through
// runner.Run encodes to the same bytes (bar its CacheKey) as the same
// machine, load, seed and budget driven through skybyte.Run, RunMix or
// RunArrival. The CLIs rely on this to send every run through the
// runner whether or not a result store is attached.
func TestRunnerMatchesDirectRuns(t *testing.T) {
	const seed = 3
	base := system.ScaledConfig()
	ycsb, err := workloads.ByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := tenant.ByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	arr, err := arrival.ByName("open-steady")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		spec   runner.Spec
		direct func() (*system.Result, error)
	}{
		{"workload", runner.Spec{Workload: "ycsb", Variant: system.SkyByteFull, TotalInstr: 24 * 1500, Threads: 24},
			func() (*system.Result, error) {
				return skybyte.Run(base.WithVariant(system.SkyByteFull), ycsb, 24, 1500, seed), nil
			}},
		{"mix", runner.Spec{Mix: "graph-vs-log", Variant: system.BaseCSSD, TotalInstr: 16000},
			func() (*system.Result, error) {
				return skybyte.RunMix(base.WithVariant(system.BaseCSSD), mix, 16000, seed)
			}},
		{"arrival", runner.Spec{Arrival: "open-steady", ArrivalScale: 2, Variant: system.SkyByteFull, TotalInstr: 18000},
			func() (*system.Result, error) {
				return skybyte.RunArrival(base.WithVariant(system.SkyByteFull), arr, 18000, seed, 2)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			viaRunner, err := runner.New(base, seed, 1).Run(context.Background(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := c.direct()
			if err != nil {
				t.Fatal(err)
			}
			stripped := *viaRunner
			stripped.CacheKey = ""
			a, err := system.EncodeResult(&stripped)
			if err != nil {
				t.Fatal(err)
			}
			b, err := system.EncodeResult(direct)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("runner result for %s differs from the direct run", c.spec.Key())
			}
		})
	}
}
