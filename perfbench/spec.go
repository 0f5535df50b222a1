package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// setupReps is how many times each workload constructs its system under
// test; setup_s is the median.
const setupReps = 101

// specCell is one Figure 3 cell: a SPEC kernel's IR under one mode,
// run at the arguments its expectation was recorded for.
type specCell struct {
	k    workloads.Kernel
	mode sfi.Mode
	mod  *ir.Module
	exp  cellExp
}

func (c *specCell) String() string { return c.k.Name + "/" + c.mode.String() }

// specSetup loads the expectations and builds (and validates) every
// SPEC kernel's IR once; the cells share it read-only.
func specSetup() ([]*specCell, time.Duration, error) {
	e, err := loadExpected()
	if err != nil {
		return nil, 0, err
	}
	var cells []*specCell
	var build time.Duration
	for _, k := range workloads.Spec2006().Kernels {
		t0 := time.Now()
		mod := k.Build(false)
		build += time.Since(t0)
		for _, mode := range specModes {
			exp, ok := e.cell(k.Name, mode)
			if !ok || !slices.Equal(exp.Args, k.Args) {
				return nil, 0, fmt.Errorf("expected.json has no %s/%v cell at the kernel's arguments; regenerate it with --gen", k.Name, mode)
			}
			cells = append(cells, &specCell{k: k, mode: mode, mod: mod, exp: exp})
		}
	}
	return cells, build, nil
}

// cellRun is one timed execution of a cell.
type cellRun struct {
	compile, instantiate, invoke time.Duration
	insts                        uint64
	cycles                       float64
	codeBytes, fusedBlocks       int
}

func (c cellRun) total() time.Duration { return c.compile + c.instantiate + c.invoke }

// runCell compiles (no module cache), instantiates standalone and
// invokes one cell, checking checksum and simulated counts. Each step is
// timed in process CPU time (every thread, so GC work counts too): the
// batch runs on one goroutine, so that is its host cost, without the
// time the hypervisor hands this machine's CPUs to other tenants.
func runCell(c *specCell, r *run) cellRun {
	var cr cellRun
	r.attempted++
	t0 := cpuTime()
	mod, err := rt.CompileModule(c.mod, sfi.DefaultConfig(c.mode))
	t1 := cpuTime()
	if err != nil {
		r.fail("%v: compile: %v", c, err)
		return cr
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
	t2 := cpuTime()
	if err != nil {
		r.fail("%v: instantiate: %v", c, err)
		return cr
	}
	res, err := inst.Invoke(c.k.Entry, c.exp.Args...)
	t3 := cpuTime()
	cr = cellRun{compile: t1 - t0, instantiate: t2 - t1, invoke: t3 - t2,
		insts: inst.Mach.Stats.Insts, cycles: inst.Mach.Stats.Cycles,
		codeBytes: mod.Prog.CodeBytes(), fusedBlocks: mod.Prog.FusedBlocks()}
	if err != nil || len(res) == 0 {
		r.fail("%v: invoke: %v", c, err)
		return cr
	}
	if err := checkRun(c.String(), c.exp.Checksum, res[0], c.exp.Insts, cr.insts, c.exp.Cycles, cr.cycles); err != nil {
		r.fail("%v", err)
	}
	return cr
}

// minPasses is how many full passes over the cells every window runs,
// so each cell's best time is taken over at least this many executions.
const minPasses = 2

// specRun is one spec-batch window: runs[i] holds every execution of
// cells[i].
type specRun struct {
	runs  [][]cellRun
	execs int
	steal float64 // host steal share over the window (0 if unknown)
}

// specWindow runs passes over the cells, each in a fresh seeded shuffled
// order, until the window has elapsed and at least minPasses passes are
// complete.
func specWindow(cells []*specCell, rng *stats.RNG, window time.Duration, r *run, tr *chromeTrace) (w specRun) {
	w.runs = make([][]cellRun, len(cells))
	st0, tot0, ok := hostCPU()
	defer func() {
		if st1, tot1, ok1 := hostCPU(); ok && ok1 && tot1 > tot0 {
			w.steal = float64(st1-st0) / float64(tot1-tot0)
		}
	}()
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, ci := range order {
			if pass >= minPasses && time.Since(start) >= window {
				return w
			}
			t0 := time.Now()
			cr := runCell(cells[ci], r)
			w.execs++
			w.runs[ci] = append(w.runs[ci], cr)
			if tr != nil {
				args := map[string]string{"cell": cells[ci].String()}
				tr.span("compile", "sfi", pidClient, 0, t0, cr.compile, args)
				tr.span("instantiate", "rt", pidClient, 0, t0.Add(cr.compile), cr.instantiate, args)
				tr.span("invoke", "cpu", pidClient, 0, t0.Add(cr.compile+cr.instantiate), cr.invoke, args)
			}
		}
	}
}

// best is the least of f over one cell's executions. Host interference
// (another tenant's load, hypervisor steal) only ever adds time, so the
// best of several executions is the steadiest estimate of a cell's cost.
func best(rs []cellRun, f func(cellRun) float64) float64 {
	b := f(rs[0])
	for _, cr := range rs[1:] {
		b = min(b, f(cr))
	}
	return b
}

// passCost sums each cell's best f: the cost of one full pass,
// insensitive to where the window cut the last pass.
func passCost(runs [][]cellRun, f func(cellRun) float64) float64 {
	var sum float64
	for _, rs := range runs {
		sum += best(rs, f)
	}
	return sum
}

func cellSeconds(c cellRun) float64 { return c.total().Seconds() }

// passInsts is the simulated instruction count of one pass.
func passInsts(cells []*specCell) float64 {
	var n float64
	for _, c := range cells {
		n += float64(c.exp.Insts)
	}
	return n
}

// specThroughput is sim_mips over a window: one pass's instructions over
// one pass's host time (compile + instantiate + invoke, best per cell).
func specThroughput(cells []*specCell, runs [][]cellRun) float64 {
	return passInsts(cells) / passCost(runs, cellSeconds) / 1e6
}

func runSpec(o options) (*run, error) {
	var setups []float64
	var cells []*specCell
	var build time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		cells, build, err = specSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r := &run{m: newMetrics(o.trace)}
	rng := stats.NewRNG(o.seed)

	if !o.trace {
		w := specWindow(cells, rng, o.window, r, nil)
		fmt.Printf("window: %d cell executions; host steal share %.4f\n", w.execs, w.steal)
		r.m.set("setup_s", median(setups))
		r.m.set("sim_mips", specThroughput(cells, w.runs))
		r.m.set("rps", float64(len(cells))/passCost(w.runs, cellSeconds))
		// Latency pools every execution of the window, like serving's
		// pooled requests; the throughput above takes each cell's best.
		var lat []float64
		for _, rs := range w.runs {
			for _, cr := range rs {
				lat = append(lat, cellSeconds(cr)*1e3)
			}
		}
		r.m.set("p50_ms", quantile(lat, 0.5))
		r.m.set("p99_ms", quantile(lat, 0.99))
		// Every pass runs the same cells, so memory does not grow with
		// the passes the window fits: the end-of-run mark is fixed work.
		r.m.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	// Traced: an untraced window first, as the reference for the
	// tracing overhead, then the traced window the layers come from.
	// Each is half the run's length (but still at least minPasses passes).
	base := specThroughput(cells, specWindow(cells, rng, o.window/2, r, nil).runs)
	tr := newChromeTrace(time.Now())
	tr.process(pidClient, "perfbench spec-batch")
	mem := startMem()
	runs := specWindow(cells, rng, o.window/2, r, tr).runs
	mem.report(r.m)
	traced := specThroughput(cells, runs)

	m := r.m
	m.set("ir.build_ms", ms(build))
	m.set("sfi.compile_ms", passCost(runs, func(c cellRun) float64 { return ms(c.compile) }))
	m.set("rt.instantiate_ms", passCost(runs, func(c cellRun) float64 { return ms(c.instantiate) }))
	invokeNs := passCost(runs, func(c cellRun) float64 { return float64(c.invoke) })
	m.set("cpu.invoke_s", invokeNs/1e9)
	m.set("cpu.ns_per_inst", invokeNs/passInsts(cells))
	perKernel := map[string][2]float64{} // kernel -> {invoke ns, insts}
	var insts, cycles, code, fused float64
	for i, c := range cells {
		first := runs[i][0]
		insts += float64(first.insts)
		cycles += first.cycles
		code += float64(first.codeBytes)
		fused += float64(first.fusedBlocks)
		pk := perKernel[c.k.Name]
		pk[0] += best(runs[i], func(c cellRun) float64 { return float64(c.invoke) })
		pk[1] += float64(c.exp.Insts)
		perKernel[c.k.Name] = pk
	}
	for k, pk := range perKernel {
		m.set("cpu.ns_per_inst."+k, pk[0]/pk[1])
	}
	m.set("cpu.sim_insts", insts)
	m.set("cpu.sim_cycles", cycles)
	m.set("sfi.code_bytes", code)
	m.set("cpu.fused_blocks", fused)
	m.set("trace.overhead_pct", (base-traced)/base*100)
	probePlacement(r, tr)
	path, err := tr.write(o)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace %s\n", path)
	return r, nil
}
