package isolation

import (
	"math"
	"testing"

	"repro/internal/mem"
)

// TestParseScheme: every scheme name round-trips, the empty string
// resolves to SchemeDefault, and unknown names are rejected.
func TestParseScheme(t *testing.T) {
	for _, want := range Schemes() {
		got, err := ParseScheme(string(want))
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", want, got, err, want)
		}
	}
	if got, err := ParseScheme(""); err != nil || got != SchemeDefault {
		t.Fatalf("ParseScheme(\"\") = %v, %v; want default", got, err)
	}
	if _, err := ParseScheme("warp"); err == nil {
		t.Fatal("ParseScheme(\"warp\") succeeded, want error")
	}
}

// TestDefaultSchemeBitExact: the default scheme must reproduce the
// historical per-kind switch exactly — every pre-scheme golden
// table integrates these floats over millions of virtual-time events,
// so even a one-ulp difference breaks byte-identity.
func TestDefaultSchemeBitExact(t *testing.T) {
	for _, kind := range Kinds() {
		if got, want := TransitionForScheme(SchemeDefault, kind), transitionDefault(kind); got != want {
			t.Fatalf("%s: TransitionForScheme(default) = %+v, historical = %+v", kind, got, want)
		}
		if got, want := TransitionForScheme("", kind), transitionDefault(kind); got != want {
			t.Fatalf("%s: TransitionForScheme(\"\") = %+v, historical = %+v", kind, got, want)
		}
	}
}

// TestRoundTripPinned pins the exact round-trip cost of every scheme ×
// backend cell — the numbers the transitions golden table renders.
func TestRoundTripPinned(t *testing.T) {
	cases := []struct {
		scheme Scheme
		kind   Kind
		want   float64
	}{
		{SchemeDefault, GuardPage, 2 * TransitionNs},
		{SchemeDefault, ColorGuard, 2 * TransitionPKRUNs},
		{SchemeDefault, MTE, 2 * TransitionNs},
		{SchemeDefault, MultiProc, 2 * TransitionNs},
		{SchemeZeroCost, GuardPage, 2 * ZeroCostTransitionNs},
		{SchemeZeroCost, ColorGuard, 2 * (ZeroCostTransitionNs + WRPKRUTaxNs)},
		{SchemeZeroCost, MTE, 2 * ZeroCostTransitionNs},
		{SchemeZeroCost, MultiProc, 2 * ZeroCostTransitionNs},
		{SchemeOneStack, GuardPage, 2 * OneStackTransitionNs},
		{SchemeOneStack, ColorGuard, 2 * (OneStackTransitionNs + WRPKRUTaxNs)},
		{SchemeOneStack, MTE, 2 * OneStackTransitionNs},
		{SchemeOneStack, MultiProc, 2 * OneStackTransitionNs},
		{SchemeTrampoline, GuardPage, 2 * TrampolineTransitionNs},
		{SchemeTrampoline, ColorGuard, 2 * (TrampolineTransitionNs + WRPKRUTaxNs)},
		{SchemeTrampoline, MTE, 2 * TrampolineTransitionNs},
		{SchemeTrampoline, MultiProc, 2 * TrampolineTransitionNs},
	}
	for _, c := range cases {
		got := TransitionForScheme(c.scheme, c.kind).RoundTripNs()
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s/%s: round trip %.4f ns, want %.4f", c.scheme, c.kind, got, c.want)
		}
	}
	// Sanity-pin the headline figures against drift in the constants
	// themselves (ns, at 2.2 GHz).
	if got := TransitionForScheme(SchemeDefault, GuardPage).RoundTripNs(); math.Abs(got-60.68) > 1e-9 {
		t.Errorf("default/guardpage round trip %.4f ns, want 60.68", got)
	}
	if got := TransitionForScheme(SchemeDefault, ColorGuard).RoundTripNs(); math.Abs(got-103.04) > 1e-9 {
		t.Errorf("default/colorguard round trip %.4f ns, want 103.04", got)
	}
	if got := TransitionForScheme(SchemeZeroCost, GuardPage).RoundTripNs(); math.Abs(got-4.54) > 1e-9 {
		t.Errorf("zerocost/guardpage round trip %.4f ns, want 4.54", got)
	}
}

// TestZeroCostBeatsDefault: the acceptance bar — zerocost strictly
// below the default round trip on every backend, and the mechanism tax
// never disappears (ColorGuard stays above guardpage under every
// scheme; multiproc keeps its switch+refill terms).
func TestZeroCostBeatsDefault(t *testing.T) {
	for _, kind := range Kinds() {
		zc := TransitionForScheme(SchemeZeroCost, kind).RoundTripNs()
		def := TransitionForScheme(SchemeDefault, kind).RoundTripNs()
		if zc >= def {
			t.Errorf("%s: zerocost %.2f >= default %.2f", kind, zc, def)
		}
	}
	for _, s := range Schemes() {
		cg := TransitionForScheme(s, ColorGuard).RoundTripNs()
		gp := TransitionForScheme(s, GuardPage).RoundTripNs()
		if cg <= gp {
			t.Errorf("%s: colorguard %.2f <= guardpage %.2f (WRPKRU tax vanished)", s, cg, gp)
		}
		mp := TransitionForScheme(s, MultiProc)
		if mp.SwitchNs != CtxSwitchNs || mp.RefillNs != CacheRefillNs || !mp.FlushTLB {
			t.Errorf("%s: multiproc lost its mechanism terms: %+v", s, mp)
		}
	}
}

// TestBackendScheme: a backend reserved under a scheme reports it and
// prices its transitions with it; an empty Config.Scheme reserves the
// default.
func TestBackendScheme(t *testing.T) {
	cfg := Config{Slots: 4, MaxMemoryBytes: 1 << 20, GuardBytes: 1 << 20, Scheme: SchemeZeroCost}
	for _, kind := range Kinds() {
		kcfg := cfg
		if kind == ColorGuard {
			kcfg.Keys = 15
		}
		b, err := NewReserved(kind, mem.NewAS(47), kcfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := b.Scheme(); got != SchemeZeroCost {
			t.Errorf("%s: Scheme() = %v, want zerocost", kind, got)
		}
		if got, want := b.TransitionCost(), TransitionForScheme(SchemeZeroCost, kind); got != want {
			t.Errorf("%s: TransitionCost() = %+v, want %+v", kind, got, want)
		}
		if err := b.Release(); err != nil {
			t.Fatalf("%s: release: %v", kind, err)
		}
	}

	kcfg := cfg
	kcfg.Scheme = ""
	b, err := NewReserved(GuardPage, mem.NewAS(47), kcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if got := b.Scheme(); got != SchemeDefault {
		t.Errorf("empty Config.Scheme: Scheme() = %v, want default", got)
	}
	if got, want := b.TransitionCost(), TransitionForScheme(SchemeDefault, GuardPage); got != want {
		t.Errorf("empty Config.Scheme: TransitionCost() = %+v, want %+v", got, want)
	}
}
