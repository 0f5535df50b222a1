package main

import (
	"repro/internal/isolation"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// metricDef names one metric, its unit and which way is better. The
// catalogue is the single source of truth: BENCHMARK.json must list the
// same metrics (bench_test.go checks it), and every run reports every
// metric of its kind.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs (--trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_mips", "Minst/s", "higher"},
	{"rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are reported by traced runs (--trace 1). A metric a workload
// does not exercise (the router hop on serve-hot, SPEC kernels on the
// serving workloads) reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"ir.build_ms", "ms", "lower"},
		{"sfi.compile_ms", "ms", "lower"},
		{"sfi.code_bytes", "bytes", "lower"},
		{"rt.instantiate_ms", "ms", "lower"},
		{"cpu.invoke_s", "s", "lower"},
		{"cpu.ns_per_inst", "ns", "lower"},
	}
	for _, k := range workloads.Spec2006().Kernels {
		d = append(d, metricDef{"cpu.ns_per_inst." + k.Name, "ns", "lower"})
	}
	d = append(d,
		metricDef{"cpu.sim_insts", "count", "lower"},
		metricDef{"cpu.sim_cycles", "cycles", "lower"},
		metricDef{"cpu.fused_blocks", "count", "higher"},
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"server.handler_p50_us", "us", "lower"},
		metricDef{"server.handler_p99_us", "us", "lower"},
		metricDef{"server.warm_hit_share", "ratio", "higher"},
		metricDef{"server.shed", "count", "lower"},
		metricDef{"server.timeouts", "count", "lower"},
		metricDef{"server.failed", "count", "lower"},
		metricDef{"cluster.hop_p50_us", "us", "lower"},
		metricDef{"cluster.hop_p99_us", "us", "lower"},
		metricDef{"cluster.divert_share", "ratio", "lower"},
		metricDef{"cluster.failovers", "count", "lower"},
	)
	for _, b := range isolation.Kinds() {
		d = append(d, metricDef{"client.p50_ms." + string(b), "ms", "lower"})
	}
	for _, p := range servedPhases {
		d = append(d,
			metricDef{"server.phase." + p + ".p50_us", "us", "lower"},
			metricDef{"server.phase." + p + ".p99_us", "us", "lower"})
	}
	for _, prefix := range []string{"isolation.allocate_us.", "rt.new_instance_us.", "rt.reset_us.", "rt.close_us."} {
		for _, b := range isolation.Kinds() {
			d = append(d, metricDef{prefix + string(b), "us", "lower"})
		}
	}
	for _, k := range workloads.FaaS().Kernels {
		d = append(d, metricDef{"rt.invoke_us." + k.Name, "us", "lower"})
	}
	return append(d,
		metricDef{"client.unattributed_p50_us", "us", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// servedPhases are the serving span phases a request passes through
// (PhaseIO belongs to the simulator and never occurs on this path).
var servedPhases = func() []string {
	var out []string
	for i, n := range telemetry.PhaseNames() {
		if telemetry.Phase(i) != telemetry.PhaseIO {
			out = append(out, n)
		}
	}
	return out
}()

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// newMetrics returns a metric set with every metric of the run's kind
// present at 0, to be overwritten by what the workload measures.
func newMetrics(traced bool) metrics {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(metrics, len(defs))
	for _, d := range defs {
		m.set(d.name, 0)
	}
	return m
}
