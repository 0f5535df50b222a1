package repro

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestZeroConfigsRunFused: the zero rt.InstanceOptions, server.Config
// and exp.Profile build every instance on the fused tier. Callers that
// name no tier, such as the repository benchmark, must get the default
// engine rather than the slow oracle. The rt.tier.* counters see every
// instance each layer builds.
func TestZeroConfigsRunFused(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	fused := telemetry.Default.Counter("rt.tier.fused")
	fast := telemetry.Default.Counter("rt.tier.fast")
	slow := telemetry.Default.Counter("rt.tier.slow")
	expectFused := func(layer string, build func()) {
		t.Helper()
		f0, o0 := fused.Load(), fast.Load()+slow.Load()
		build()
		if fused.Load() == f0 {
			t.Errorf("%s: built no fused-tier instance", layer)
		}
		if o := fast.Load() + slow.Load(); o != o0 {
			t.Errorf("%s: built %d instances on another tier", layer, o-o0)
		}
	}

	expectFused("rt.InstanceOptions{}", func() {
		k, err := workloads.FaaS().Find("hash-load-balance")
		if err != nil {
			t.Fatal(err)
		}
		mod, err := rt.CompileModule(k.Build(false), sfi.DefaultConfig(sfi.ModeSegue))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := rt.NewInstance(mod, rt.InstanceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if inst.Mach.Tier != cpu.TierFused {
			t.Errorf("zero InstanceOptions: tier %s, want fused", inst.Mach.Tier)
		}
	})

	expectFused("exp.Profile{}", func() {
		e, _ := exp.ByID("transition")
		if _, err := e.Run(exp.Profile{}); err != nil {
			t.Fatal(err)
		}
	})

	expectFused("server.Config{}", func() {
		s, err := server.New(server.Config{Registry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/invoke/hash-load-balance?n=8")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d: %s", resp.StatusCode, body)
		}
	})
}
