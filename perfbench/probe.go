package main

import (
	"time"

	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/workloads"
)

// workerSlots mirrors server.Config's SlotsPerWorker default, so the
// probe slabs have a serving worker's geometry.
const workerSlots = 4

// probeReps is how many times each direct layer call is repeated per
// (kernel, backend); the probes report medians.
const probeReps = 25

// faasKernel is one served kernel with its compiled module and
// expectation, as the direct-call probes use it.
type faasKernel struct {
	k   workloads.Kernel
	mod *rt.Module
	exp faasExp
}

func faasKernels(r *run) []faasKernel {
	e, err := loadExpected()
	if err != nil {
		r.problem("%v", err)
		return nil
	}
	var out []faasKernel
	for _, k := range workloads.FaaS().Kernels {
		exp, ok := e.faas(k.Name)
		if !ok {
			r.problem("expected.json has no %s entry", k.Name)
			continue
		}
		mod, err := rt.CompileModule(k.Build(false), faasConfig())
		if err != nil {
			r.problem("compiling %s: %v", k.Name, err)
			continue
		}
		out = append(out, faasKernel{k: k, mod: mod, exp: exp})
	}
	return out
}

// probeFaaS times the served kernels' compile, standalone instantiate
// and invoke from outside, checking every invocation's checksum and
// simulated counts; it reports the ir/sfi/rt/cpu layer metrics of the
// serving workloads.
func probeFaaS(r *run, irBuild time.Duration) {
	m := r.m
	var compile, inst, invoke, insts, cycles, code, fused float64
	for _, fk := range faasKernels(r) {
		var tc, ti, tv []float64
		var last *rt.Module
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			mod, err := rt.CompileModule(fk.mod.IR, faasConfig())
			t1 := time.Now()
			if err != nil {
				r.problem("compiling %s: %v", fk.k.Name, err)
				return
			}
			in, err := rt.NewInstance(mod, rt.InstanceOptions{FSGSBASE: true})
			t2 := time.Now()
			if err != nil {
				r.problem("instantiating %s: %v", fk.k.Name, err)
				return
			}
			r.attempted++
			out, err := in.Invoke(fk.k.Entry, fk.exp.Batch)
			t3 := time.Now()
			if err != nil || len(out) == 0 {
				r.fail("%s standalone: invoke: %v", fk.k.Name, err)
				continue
			}
			st := in.Mach.Stats
			if err := checkRun(fk.k.Name+" standalone", fk.exp.Checksum, out[0], fk.exp.Insts, st.Insts, fk.exp.Cycles, st.Cycles); err != nil {
				r.fail("%v", err)
			}
			if rep == 0 {
				insts += float64(st.Insts)
				cycles += st.Cycles
			}
			tc = append(tc, ms(t1.Sub(t0)))
			ti = append(ti, ms(t2.Sub(t1)))
			tv = append(tv, float64(t3.Sub(t2)))
			last = mod
		}
		compile += median(tc)
		inst += median(ti)
		invoke += median(tv)
		if last != nil {
			code += float64(last.Prog.CodeBytes())
			fused += float64(last.Prog.FusedBlocks())
		}
	}
	m.set("ir.build_ms", ms(irBuild))
	m.set("sfi.compile_ms", compile)
	m.set("rt.instantiate_ms", inst)
	m.set("cpu.invoke_s", invoke/1e9)
	m.set("cpu.ns_per_inst", invoke/insts)
	m.set("cpu.sim_insts", insts)
	m.set("cpu.sim_cycles", cycles)
	m.set("sfi.code_bytes", code)
	m.set("cpu.fused_blocks", fused)
}

// probePlacement times the placement layer directly on each isolation
// backend: a slab reserved with a server worker's geometry, then per
// kernel Allocate → rt.NewInstance → Invoke → Reset → Invoke → Close,
// the cold path and the keep-warm path a served request takes.
func probePlacement(r *run, tr *chromeTrace) {
	kernels := faasKernels(r)
	var maxBytes uint64
	for _, fk := range kernels {
		if n := uint64(fk.mod.IR.MemMax) * ir.PageSize; n > maxBytes {
			maxBytes = n
		}
	}
	invokes := map[string][]float64{}
	for tid, kind := range isolation.Kinds() {
		cfg := isolation.Config{
			Slots:          workerSlots,
			MaxMemoryBytes: maxBytes,
			GuardBytes:     1 << 20,
		}
		if kind == isolation.ColorGuard {
			cfg.Keys = 15
		}
		if kind == isolation.MultiProc {
			cfg.Processes = cfg.Slots
		}
		b, err := isolation.NewReserved(kind, mem.NewAS(47), cfg)
		if err != nil {
			r.problem("reserving %s slab: %v", kind, err)
			continue
		}
		var alloc, newInst, reset, closeT []float64
		for rep := 0; rep < probeReps; rep++ {
			for _, fk := range kernels {
				args := map[string]string{"backend": string(kind), "kernel": fk.k.Name}
				t0 := time.Now()
				slot, err := b.Allocate(uint64(fk.mod.IR.MemMin) * ir.PageSize)
				t1 := time.Now()
				if err != nil {
					r.problem("%s: allocate: %v", kind, err)
					continue
				}
				inst, err := rt.NewInstance(fk.mod, rt.InstanceOptions{FSGSBASE: true, Place: isolation.Place(b, slot)})
				t2 := time.Now()
				if err != nil {
					r.problem("%s: instantiate %s: %v", kind, fk.k.Name, err)
					_ = b.Recycle(slot)
					continue
				}
				probeInvoke(r, fk, inst, kind, invokes)
				t3 := time.Now()
				if err := inst.Reset(); err != nil {
					r.problem("%s: reset %s: %v", kind, fk.k.Name, err)
				}
				t4 := time.Now()
				probeInvoke(r, fk, inst, kind, nil)
				t5 := time.Now()
				if err := inst.Close(); err != nil {
					r.problem("%s: close %s: %v", kind, fk.k.Name, err)
				}
				t6 := time.Now()
				alloc = append(alloc, us(t1.Sub(t0)))
				newInst = append(newInst, us(t2.Sub(t1)))
				reset = append(reset, us(t4.Sub(t3)))
				closeT = append(closeT, us(t6.Sub(t5)))
				if tr != nil && rep == 0 {
					tr.span("allocate", "isolation", pidClient, 1+tid, t0, t1.Sub(t0), args)
					tr.span("new_instance", "rt", pidClient, 1+tid, t1, t2.Sub(t1), args)
					tr.span("invoke", "cpu", pidClient, 1+tid, t2, t3.Sub(t2), args)
					tr.span("reset", "rt", pidClient, 1+tid, t3, t4.Sub(t3), args)
					tr.span("close", "rt", pidClient, 1+tid, t5, t6.Sub(t5), args)
				}
			}
		}
		if err := b.Release(); err != nil {
			r.problem("releasing %s slab: %v", kind, err)
		}
		r.m.set("isolation.allocate_us."+string(kind), median(alloc))
		r.m.set("rt.new_instance_us."+string(kind), median(newInst))
		r.m.set("rt.reset_us."+string(kind), median(reset))
		r.m.set("rt.close_us."+string(kind), median(closeT))
	}
	for k, xs := range invokes {
		r.m.set("rt.invoke_us."+k, median(xs))
	}
}

// probeInvoke runs one placed invocation and checks its checksum and
// instruction count (cycles depend on the backend's transition costs,
// so only the standalone probe pins them). When times is non-nil the
// invocation's duration is recorded under the kernel's name.
func probeInvoke(r *run, fk faasKernel, inst *rt.Instance, kind isolation.Kind, times map[string][]float64) {
	r.attempted++
	t0 := time.Now()
	out, err := inst.Invoke(fk.k.Entry, fk.exp.Batch)
	d := time.Since(t0)
	if err != nil || len(out) == 0 {
		r.fail("%s on %s: invoke: %v", fk.k.Name, kind, err)
		return
	}
	if out[0] != fk.exp.Checksum || inst.Mach.Stats.Insts != fk.exp.Insts {
		r.fail("%s on %s: checksum %d / %d insts, want %d / %d", fk.k.Name, kind,
			out[0], inst.Mach.Stats.Insts, fk.exp.Checksum, fk.exp.Insts)
		return
	}
	if times != nil {
		times[fk.k.Name] = append(times[fk.k.Name], us(d))
	}
}
