package faas

import (
	"reflect"
	"testing"

	"repro/internal/isolation"
)

// TestFlagTransLegacyPinned pins the cost model the deleted legacyTrans
// used to hardcode: the ColorGuard-flag configs must keep deriving the
// exact historical numbers from the isolation layer, switch terms
// always present (they are only charged when Processes > 1).
func TestFlagTransLegacyPinned(t *testing.T) {
	want := isolation.TransitionCost{
		EnterNs:  isolation.TransitionPKRUNs, // 51.52
		LeaveNs:  isolation.TransitionPKRUNs,
		SwitchNs: isolation.CtxSwitchNs,   // 3500
		RefillNs: isolation.CacheRefillNs, // 3200
		FlushTLB: true,
	}
	if got := DefaultConfig(testWorkload, 1, true).Trans; got != want {
		t.Fatalf("ColorGuard flag Trans = %+v, want %+v", got, want)
	}
	want.EnterNs, want.LeaveNs = isolation.TransitionNs, isolation.TransitionNs // 30.34
	if got := DefaultConfig(testWorkload, 8, false).Trans; got != want {
		t.Fatalf("plain flag Trans = %+v, want %+v", got, want)
	}
	// And the numbers themselves, against drift in the constants.
	if isolation.TransitionPKRUNs != 51.52 || isolation.TransitionNs != 30.34 {
		t.Fatalf("transition constants drifted: %v, %v", isolation.TransitionPKRUNs, isolation.TransitionNs)
	}
	if isolation.CtxSwitchNs != 3500.0 || isolation.CacheRefillNs != 3200.0 {
		t.Fatalf("switch constants drifted: %v, %v", isolation.CtxSwitchNs, isolation.CacheRefillNs)
	}
}

// TestSchemeConfigDefault: the empty scheme is exactly SchemeDefault,
// priced with the historical per-kind costs — the invariant behind
// every pre-scheme golden.
func TestSchemeConfigDefault(t *testing.T) {
	for _, kind := range isolation.Kinds() {
		a := SchemeConfig(testWorkload, kind, "", 4)
		b := SchemeConfig(testWorkload, kind, isolation.SchemeDefault, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: SchemeConfig(\"\") != SchemeConfig(default):\n%+v\n%+v", kind, a, b)
		}
		if a.Trans != isolation.TransitionForScheme(isolation.SchemeDefault, kind) {
			t.Errorf("%s: default Trans = %+v, want the default-scheme costs", kind, a.Trans)
		}
	}
}

// TestSchemeRunThroughput: under a saturating load of small requests, a
// cheaper transition scheme strictly raises simulated throughput on
// every same-process backend, and the ordering of schemes by convention
// cost is the reverse ordering by throughput.
func TestSchemeRunThroughput(t *testing.T) {
	w := Workload{Name: "tiny", ComputeNs: 2_000, Pages: 8}
	run := func(s isolation.Scheme, kind isolation.Kind) float64 {
		cfg := SchemeConfig(w, kind, s, 1)
		cfg.ArrivalsPerEpoch = 600
		cfg.DurationNs = 0.2e9
		return Run(cfg).ThroughputRPS
	}
	for _, kind := range []isolation.Kind{isolation.GuardPage, isolation.ColorGuard, isolation.MTE} {
		zc := run(isolation.SchemeZeroCost, kind)
		def := run(isolation.SchemeDefault, kind)
		tr := run(isolation.SchemeTrampoline, kind)
		if !(zc > def && def > tr) {
			t.Errorf("%s: want zerocost > default > trampoline rps, got %.0f, %.0f, %.0f", kind, zc, def, tr)
		}
	}
}

// TestRunZeroTransDerivesScheme: a Config built by hand with a zero
// Trans derives the cost model from its Scheme and ColorGuard fields —
// the successor of the legacyTrans fallback inside Run.
func TestRunZeroTransDerivesScheme(t *testing.T) {
	base := DefaultConfig(testWorkload, 1, true)
	base.DurationNs = 0.1e9

	implicit := base
	implicit.Scheme = isolation.SchemeZeroCost
	implicit.Trans = isolation.TransitionCost{}

	explicit := base
	explicit.Scheme = isolation.SchemeZeroCost
	explicit.Trans = flagTrans(isolation.SchemeZeroCost, true)

	if got, want := Run(implicit), Run(explicit); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-Trans run differs from explicit flagTrans run:\n%+v\n%+v", got, want)
	}
}
