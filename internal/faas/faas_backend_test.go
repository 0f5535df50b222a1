package faas

import (
	"reflect"
	"testing"

	"repro/internal/isolation"
	"repro/internal/mem"
)

var diffWorkload = Workload{Name: "w", ComputeNs: 30_000, Pages: 48}

// TestBackendConfigMatchesLegacy: the kind-derived cost models must
// reproduce the legacy flag-derived simulation exactly — same Result
// struct, field for field — for every (kind, process-count) combination
// the legacy API could express. This is the §6.4.3 half of the
// refactor's acceptance bar: one cost path, zero drift.
func TestBackendConfigMatchesLegacy(t *testing.T) {
	cases := []struct {
		kind       isolation.Kind
		processes  int
		colorGuard bool
	}{
		{isolation.ColorGuard, 1, true},
		{isolation.GuardPage, 1, false},
		{isolation.MTE, 1, false},
		{isolation.MultiProc, 1, false},
		{isolation.MultiProc, 4, false},
		{isolation.MultiProc, 15, false},
	}
	for _, c := range cases {
		legacy := Run(DefaultConfig(diffWorkload, c.processes, c.colorGuard))
		backend := Run(SchemeConfig(diffWorkload, c.kind, "", c.processes))
		if !reflect.DeepEqual(legacy, backend) {
			t.Fatalf("%s/%d: backend result %+v != legacy result %+v", c.kind, c.processes, backend, legacy)
		}
	}
}

// TestZeroValueConfigDerivesLegacyCosts: a Config built by hand without
// Trans still runs under the historical cost model.
func TestZeroValueConfigDerivesLegacyCosts(t *testing.T) {
	base := DefaultConfig(diffWorkload, 3, true)
	bare := base
	bare.Trans = isolation.TransitionCost{}
	if !reflect.DeepEqual(Run(base), Run(bare)) {
		t.Fatal("zero-value Trans did not fall back to the flag-derived model")
	}
}

// TestBackendConfigFromLiveBackend: SchemeConfig, with the MTE
// tag-preserving madvise set on its Lifecycle, carries exactly the cost
// models a reserved backend with that option reports.
func TestBackendConfigFromLiveBackend(t *testing.T) {
	b, err := isolation.NewReserved(isolation.MTE, mem.NewAS(47), isolation.Config{
		Slots: 4, MaxMemoryBytes: 64 << 10, GuardBytes: 1 << 20,
		PreserveTagsOnMadvise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchemeConfig(diffWorkload, isolation.MTE, "", 1)
	cfg.Lifecycle = isolation.LifecycleFor(isolation.MTE, true)
	if cfg.Trans != b.TransitionCost() || cfg.Scheme != b.Scheme() {
		t.Fatalf("trans = %+v under %s, backend %+v under %s", cfg.Trans, cfg.Scheme, b.TransitionCost(), b.Scheme())
	}
	if cfg.Lifecycle != b.LifecycleCost() {
		t.Fatalf("lifecycle = %+v, backend %+v", cfg.Lifecycle, b.LifecycleCost())
	}
	if cfg.Lifecycle.RecolorOnReuse || cfg.Lifecycle.DecolorNsPerByte != 0 {
		t.Fatalf("lifecycle = %+v, want tag-preserving (no decolor terms)", cfg.Lifecycle)
	}
	if cfg.ColorGuard {
		t.Fatal("MTE backend config should not set the ColorGuard flag")
	}
}

// TestColdStartOrdersBackends: with a fresh instance per request, the
// §7 lifecycle costs separate the mechanisms — MTE without the
// preserving madvise pays full re-tagging and clearing per request and
// must complete the fewest requests; the fix recovers most of the gap;
// warm instances beat both.
func TestColdStartOrdersBackends(t *testing.T) {
	mkCfg := func(preserve bool) Config {
		cfg := SchemeConfig(diffWorkload, isolation.MTE, "", 1)
		cfg.Lifecycle = isolation.LifecycleFor(isolation.MTE, preserve)
		cfg.ColdStart = true
		cfg.InstanceBytes = 64 << 10
		return cfg
	}
	warm := Run(SchemeConfig(diffWorkload, isolation.MTE, "", 1))
	coldFix := Run(mkCfg(true))
	cold := Run(mkCfg(false))
	if cold.LifecycleNs <= 0 || coldFix.LifecycleNs <= 0 {
		t.Fatalf("cold starts charged no lifecycle time: %v / %v", cold.LifecycleNs, coldFix.LifecycleNs)
	}
	if warm.LifecycleNs != 0 {
		t.Fatalf("warm run charged lifecycle time: %v", warm.LifecycleNs)
	}
	if !(cold.Completed < coldFix.Completed && coldFix.Completed < warm.Completed) {
		t.Fatalf("completed ordering: cold %d, cold+fix %d, warm %d — want strictly increasing",
			cold.Completed, coldFix.Completed, warm.Completed)
	}
	// Per-request lifecycle gap matches the §7 per-instance numbers:
	// cold pays init+teardown with tagging, the fix pays base costs.
	perReqCold := isolation.LifecycleFor(isolation.MTE, false)
	perReqFix := isolation.LifecycleFor(isolation.MTE, true)
	if perReqCold.InitNs(64<<10, true) <= perReqFix.InitNs(64<<10, false) {
		t.Fatal("cost model inversion")
	}
}
