package server

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// compileKernel fetches a kernel's compiled module, under the given
// Spectre hardening, from the process-wide race-safe compile cache, so
// N workers share one compilation.
func compileKernel(k workloads.Kernel, harden sfi.Harden) (*rt.Module, error) {
	cfg := sfi.DefaultConfig(sfi.ModeSegue)
	cfg.Harden = harden
	return rt.CompileModuleCached(
		rt.ModuleKey{Name: k.Name, Cfg: cfg},
		func() *ir.Module { return k.Build(false) })
}

// worker is one executor goroutine. It owns its isolation backends
// outright — simulated address spaces are single-owner — and runs one
// request at a time: allocate a slot from the request's backend, build
// a fresh instance in it, invoke the kernel, recycle the slot.
//
// Backends are keyed by (kind, scheme): a slab's transition cost model
// is fixed at NewReserved, so requests under different transition
// schemes must not share a slab.
type worker struct {
	s        *Server
	id       int
	maxBytes uint64 // largest linear memory any served kernel needs
	backends map[backendKey]*isolation.Backend

	// warm pins recently-used instances (slot held, memory initialized)
	// so a repeat (kernel, backend, scheme) pays an instance reset
	// instead of the cold-start path. Owned by this goroutine, like the
	// backends; capacity follows the server's per-backend warm targets.
	warm *warmPool
}

// backendKey identifies one of a worker's slabs: the isolation
// mechanism plus the transition scheme its cost model was reserved
// under.
type backendKey struct {
	kind   isolation.Kind
	scheme isolation.Scheme
}

func newWorker(s *Server, id int) *worker {
	var maxBytes uint64
	for _, m := range s.mods {
		if n := uint64(m.IR.MemMax) * ir.PageSize; n > maxBytes {
			maxBytes = n
		}
	}
	return &worker{
		s:        s,
		id:       id,
		maxBytes: maxBytes,
		backends: make(map[backendKey]*isolation.Backend),
		warm:     newWarmPool(),
	}
}

// backend returns the worker's slab for (kind, scheme), reserving it on
// first use (a worker that never sees an MTE request never pays for an
// MTE slab, and a worker that never sees a zerocost request never pays
// for a second slab of the same kind).
func (w *worker) backend(kind isolation.Kind, scheme isolation.Scheme) (*isolation.Backend, error) {
	key := backendKey{kind: kind, scheme: scheme}
	if b, ok := w.backends[key]; ok {
		return b, nil
	}
	cfg := isolation.Config{
		Slots:          w.s.cfg.SlotsPerWorker,
		MaxMemoryBytes: w.maxBytes,
		GuardBytes:     1 << 20,
		Scheme:         scheme,
	}
	if kind == isolation.ColorGuard {
		cfg.Keys = 15
	}
	if kind == isolation.MultiProc {
		// Process-per-instance: every slot is its own OS process in the
		// model (§6.4.3), so a pinned warm instance costs a whole
		// process — the density disadvantage ColorGuard's same-process
		// slots are measured against at cluster scale.
		cfg.Processes = w.s.cfg.SlotsPerWorker
	}
	b, err := isolation.NewReserved(kind, mem.NewAS(47), cfg)
	if err != nil {
		return nil, fmt.Errorf("reserving %s backend: %w", kind, err)
	}
	w.backends[key] = b
	return b, nil
}

// run drains the shard queue until Close closes it, then closes the
// pinned warm instances and releases the worker's slabs.
func (w *worker) run(queue <-chan *job) {
	defer w.s.wg.Done()
	defer func() {
		if n := w.warm.closeAll(); n > 0 {
			w.s.met.warmPinned.Add(int64(-n))
		}
		for _, b := range w.backends {
			_ = b.Release()
		}
	}()
	for j := range queue {
		w.serve(j)
	}
}

// serve applies the degradation policies around one execution: a
// request past its deadline is dropped before any isolation or compute
// cost is sunk (and feeds the breaker, like the simulator's timeout
// path); completions and failures feed the breaker the same way.
func (w *worker) serve(j *job) {
	defer func() {
		w.s.met.inFlight.Set(w.s.inFlight.Add(-1))
	}()
	// obs gates all wall-clock phase bookkeeping below: with spans and
	// tracing both off, serving pays these two loads and nothing else.
	obs := j.span.On() || telemetry.Trace.Enabled()
	var deq time.Time
	if obs {
		deq = time.Now()
		j.span.Add(telemetry.PhaseQueue, float64(deq.Sub(j.admitted)))
		traceSpan("queue", j.shard, j.admitted, deq)
	}
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		w.s.met.timeouts.Inc()
		if w.s.breaker.OnFailure() {
			w.s.met.breakerOpens.Inc()
		}
		j.done <- jobResult{status: http.StatusGatewayTimeout,
			err: "deadline exceeded before execution", finished: deq}
		return
	}
	res := w.execute(j, obs, deq)
	if res.status == http.StatusOK {
		w.s.met.completed.Inc()
		w.s.met.latency.Observe(float64(time.Since(j.admitted)))
		w.s.breaker.OnSuccess()
	} else {
		w.s.met.failed.Inc()
		if w.s.breaker.OnFailure() {
			w.s.met.breakerOpens.Inc()
		}
	}
	j.done <- res
}

// execute runs one request end to end on a fresh placed instance. When
// obs is set it attributes the wall time to phases on j.span (and the
// tracer), keeping the phase boundaries telescoped: every return path
// sets finished to its last attributed instant, so the handler's
// marshal phase picks up exactly where execution left off. deq is the
// dequeue instant the placement phase starts from.
func (w *worker) execute(j *job, obs bool, deq time.Time) jobResult {
	mod := w.s.mods[j.kernel.Name]
	fail := func(status int, msg string) jobResult {
		res := jobResult{status: status, err: msg, worker: w.id}
		if obs {
			// The failed setup work is still placement time.
			res.finished = time.Now()
			j.span.Add(telemetry.PhasePlacement, float64(res.finished.Sub(deq)))
		}
		return res
	}
	key := warmKey{kernel: j.kernel.Name, kind: j.backend, scheme: j.scheme}
	inst, status, msg := w.acquire(key, mod)
	if inst == nil {
		return fail(status, msg)
	}
	var placed time.Time
	if obs {
		placed = time.Now()
		j.span.Add(telemetry.PhasePlacement, float64(placed.Sub(deq)))
		traceSpan("placement", j.shard, deq, placed)
	}
	out, err := inst.Invoke(j.kernel.Entry, j.batch)
	res := jobResult{worker: w.id}
	if obs {
		invoked := time.Now()
		res.finished = invoked
		w.attributeInvoke(j, inst, placed, invoked)
	}
	if err != nil {
		// A trapped or failed execution leaves machine state suspect:
		// never pin it.
		inst.Close()
		res.status = http.StatusInternalServerError
		res.err = fmt.Sprintf("invoking %s: %v", j.kernel.Name, err)
		return res
	}
	var sum uint64
	if len(out) > 0 {
		sum = out[0]
	}
	res.status = http.StatusOK
	res.checksum = sum
	res.simNs = inst.Mach.Stats.Nanos(&inst.Mach.Cost)
	w.retire(key, inst)
	return res
}

// acquire produces a ready instance for key: a pinned warm instance
// reset to its initial state when the pool has one, a cold start
// (fresh slot + instance) otherwise. A failed reset falls back to the
// cold path. Returns (nil, status, msg) when even the cold path fails.
func (w *worker) acquire(key warmKey, mod *rt.Module) (*rt.Instance, int, string) {
	if wi := w.warm.take(key); wi != nil {
		w.s.met.warmPinned.Add(-1)
		if err := wi.Reset(); err != nil {
			w.s.met.warmResetFails.Inc()
			wi.Close()
		} else {
			w.s.met.warmHits.Inc()
			return wi, 0, ""
		}
	}
	w.s.met.warmMisses.Inc()
	w.s.met.warmMissKind[key.kind].Inc()
	b, err := w.backend(key.kind, key.scheme)
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error()
	}
	need := uint64(mod.IR.MemMin) * ir.PageSize
	slot, err := b.Allocate(need)
	if err != nil {
		// Slot exhaustion: the serving-layer analogue of the
		// simulator's SlotExhausted fault class.
		return nil, http.StatusServiceUnavailable,
			fmt.Sprintf("no free %s slot: %v", key.kind, err)
	}
	inst, err := rt.NewInstance(mod, rt.InstanceOptions{
		FSGSBASE: true,
		Place:    isolation.Place(b, slot),
		Tier:     w.s.cfg.Tier,
	})
	if err != nil {
		_ = b.Recycle(slot)
		return nil, http.StatusInternalServerError,
			fmt.Sprintf("instantiating: %v", err)
	}
	return inst, 0, ""
}

// retire decides a successfully-used instance's fate: pin it warm
// under the current per-backend target, or close it (recycling the
// slot). Shrunken targets are enforced here too — on the owning
// goroutine — so an autoscaler shrink lands the next time the worker
// completes any request.
func (w *worker) retire(key warmKey, inst *rt.Instance) {
	for kind, target := range w.s.WarmTargets() {
		if kind == key.kind {
			continue // put enforces this kind's target below
		}
		if n := w.warm.trim(kind, target); n > 0 {
			w.s.met.warmEvictions.Add(uint64(n))
			w.s.met.warmPinned.Add(int64(-n))
		}
	}
	pinned, evicted := w.warm.put(key, inst, w.s.WarmTarget(key.kind))
	if evicted > 0 {
		w.s.met.warmEvictions.Add(uint64(evicted))
		w.s.met.warmPinned.Add(int64(-evicted))
	}
	if pinned {
		w.s.met.warmPinned.Add(1)
	} else {
		inst.Close()
	}
}

// attributeInvoke splits the wall time of one Invoke into transition-in,
// exec, and transition-out shares, in proportion to the instance's
// simulated cycle accounting (the only ground truth for where inside
// the crossing the time went), and emits the matching tracer spans on
// the job's shard track.
func (w *worker) attributeInvoke(j *job, inst *rt.Instance, placed, invoked time.Time) {
	wall := float64(invoked.Sub(placed))
	if wall <= 0 {
		return
	}
	inNs, outNs := inst.TransitionNs()
	simNs := inst.Mach.Stats.Nanos(&inst.Mach.Cost)
	var wIn, wOut float64
	if simNs > 0 && inNs+outNs <= simNs {
		wIn = wall * (inNs / simNs)
		wOut = wall * (outNs / simNs)
	}
	wExec := wall - wIn - wOut
	j.span.Add(telemetry.PhaseTransitionIn, wIn)
	j.span.Add(telemetry.PhaseExec, wExec)
	j.span.Add(telemetry.PhaseTransitionOut, wOut)
	if telemetry.Trace.Enabled() {
		tIn := placed.Add(time.Duration(wIn))
		tExec := tIn.Add(time.Duration(wExec))
		traceSpan("transition_in", j.shard, placed, tIn)
		traceSpan("exec", j.shard, tIn, tExec)
		traceSpan("transition_out", j.shard, tExec, invoked)
	}
}

// traceSpan emits one wall-clock phase span on the shard's track of the
// process tracer (one track per shard, cat "serve").
func traceSpan(name string, shard int, start, end time.Time) {
	if !telemetry.Trace.Enabled() || !end.After(start) {
		return
	}
	ts := telemetry.Trace.Now() - float64(time.Since(start))
	telemetry.Trace.Span(name, "serve", telemetry.PidWall, shard, ts, float64(end.Sub(start)))
}
