// Allocation budget for the inner loop. The event engine, CPU, system,
// controller, and flash layers pool their event records and schedule
// through typed handlers, so a steady-state design point performs O(1)
// allocations per off-chip request, not O(events). This test pins that
// property: the pre-pooling engine spent ~274k allocations (~21 per
// request) on this exact run; the budgets below sit ~8x above today's
// measurement (~4.2k, 0.32/request) and ~8x below the old cost, so a
// regression that reintroduces per-event garbage fails loudly while
// normal drift does not. Allocation counts are hardware-independent,
// which makes this the portable half of the perf gate (BENCH_7.json and
// cmd/benchgate carry the wall-clock half).
package skybyte_test

import (
	"testing"

	"skybyte"
)

func TestColdRunAllocsBudget(t *testing.T) {
	w, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	if cfg.TelemetryCadence != 0 {
		t.Fatal("allocation budget must measure the telemetry-disabled path")
	}
	var reqs uint64
	allocs := testing.AllocsPerRun(3, func() {
		r := skybyte.Run(cfg, w, 24, 8000, 1)
		reqs = r.Breakdown.Total()
		if r.Telemetry != nil {
			t.Error("telemetry-disabled run carried a Telemetry section")
		}
	})
	if reqs == 0 {
		t.Fatal("run classified no requests")
	}
	const runBudget = 32_000
	if allocs > runBudget {
		t.Errorf("cold design point performed %.0f allocations; budget is %d (pre-pooling engine: ~274k)", allocs, runBudget)
	}
	perReq := allocs / float64(reqs)
	const perReqBudget = 2.5
	if perReq > perReqBudget {
		t.Errorf("%.2f allocations per off-chip request (%.0f allocs / %d requests); budget is %.1f (pre-pooling engine: ~21)",
			perReq, allocs, reqs, perReqBudget)
	}
}
