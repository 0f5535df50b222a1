// Package faas is the discrete-event simulation of §6.4.3: a FaaS edge
// platform handling IO-bound requests on a single pinned core, either
// as one ColorGuard process (user-level transitions between striped
// instances) or as N OS processes (the scaling strategy ColorGuard
// replaces). It reproduces the paper's simulation design — 1 ms epochs,
// Poisson(5 ms) IO delays, N incoming requests per epoch — and its
// measured effects: process scaling pays context-switch costs and
// dTLB/cache refills that grow with the process count (Figures 6, 7a,
// 7b).
//
// The simulator works in nanoseconds of virtual time. Per-request
// compute costs and page footprints come from measuring the actual
// workload kernels on the emulator (see internal/exp); this package is
// pure scheduling.
//
// Beyond the paper's warm steady state, the simulator models what
// production platforms actually experience under load: Config.Faults
// arms internal/fault's deterministic injector (cold-start failures,
// slot exhaustion, transition faults, poisoned instances) and the
// degradation policies the platform responds with — retry with
// exponential backoff, per-request deadlines, admission control with
// load shedding, and a circuit breaker, all in virtual nanoseconds.
// Result's shed/retried/failed/timed-out counters and Degradation
// curve report the outcome. The zero Faults value is provably inert:
// it skips every fault branch, and an armed config whose rates and
// policies cannot fire leaves results unchanged
// (TestFaultsArmedButIdleInert).
package faas

import (
	"container/heap"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/isolation"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Workload describes one handler's per-request behaviour, measured
// externally.
type Workload struct {
	Name string

	// ComputeNs is the mean on-CPU time per request; actual draws
	// vary ±25% deterministically.
	ComputeNs float64

	// Pages is the number of distinct instance pages a request
	// touches while computing.
	Pages int
}

// Config parameterizes one simulation run.
type Config struct {
	Workload Workload

	// Processes is the number of OS processes; 1 with ColorGuard set
	// is the ColorGuard strategy.
	Processes  int
	ColorGuard bool

	// Trans is the per-boundary-crossing cost model the simulation
	// charges: enter+leave per request, switch+refill per process
	// switch. The zero value derives the model from the ColorGuard
	// flag and Scheme via the isolation layer (flagTrans);
	// SchemeConfig fills it from an isolation backend kind, so §6.4.3
	// and §7 share one cost path.
	Trans isolation.TransitionCost

	// Scheme is the transition calling-convention scheme behind Trans.
	// It only participates in cost derivation when Trans is zero (the
	// Config constructors resolve Trans eagerly); empty means
	// SchemeDefault.
	Scheme isolation.Scheme

	// Lifecycle is the per-slot init/recycle cost model, charged per
	// request when ColdStart is set.
	Lifecycle isolation.LifecycleCost

	// ColdStart charges Lifecycle init before each request's compute
	// and Lifecycle teardown at completion — the serverless pattern
	// where every request gets a fresh instance (§7's concern). Off by
	// default: the §6.4.3 figures model warm instances.
	ColdStart bool

	// InstanceBytes is the linear-memory size Lifecycle costs are
	// charged on (ColdStart only).
	InstanceBytes uint64

	// EpochNs is the preemption quantum (paper: 1 ms).
	EpochNs float64
	// IODelayMeanNs is the Poisson mean of the simulated IO wait
	// (paper: 5 ms).
	IODelayMeanNs float64
	// ArrivalsPerEpoch requests arrive each epoch.
	ArrivalsPerEpoch int
	// DurationNs is the simulated wall-clock length.
	DurationNs float64

	// RecordLatency keeps every completed request's arrival-to-completion
	// time in Result.Latencies and fills the LatencyP* percentiles. Off
	// by default so bulk experiment sweeps pay no per-request append.
	RecordLatency bool

	// RecordPhases attributes every completed request's virtual-time
	// latency to the fixed telemetry phases (IO wait, queue wait,
	// placement, transition in/out, execution) and fills
	// Result.PhaseTotalsNs and Result.PhaseBreakdown. The bookkeeping
	// never touches the simulation clock, so enabling it leaves every
	// figure byte-identical; it also arms process-wide whenever
	// telemetry.SpansEnabled() is on, which the attribution golden test
	// uses to prove the wired paths inert.
	RecordPhases bool

	// Faults arms deterministic fault injection and the degradation
	// policies (retry/backoff, deadline, admission control, circuit
	// breaker). The zero value is inert: no fault branch executes and
	// the run is byte-identical to one without the machinery.
	Faults fault.Config

	Seed uint64
}

// DefaultConfig returns the paper's simulation parameters around the
// given workload, with the flag-derived cost model: plain or PKRU
// transitions per the colorGuard flag under the default transition
// scheme, and the standard context-switch/cache-refill costs when
// processes contend.
func DefaultConfig(w Workload, processes int, colorGuard bool) Config {
	return Config{
		Workload:         w,
		Processes:        processes,
		ColorGuard:       colorGuard,
		Scheme:           isolation.SchemeDefault,
		Trans:            flagTrans(isolation.SchemeDefault, colorGuard),
		EpochNs:          1e6,
		IODelayMeanNs:    5e6,
		ArrivalsPerEpoch: 40,
		DurationNs:       2e9,
		Seed:             7,
	}
}

// flagTrans derives the historical ColorGuard-flag cost model from the
// scheme-composed isolation layer: the scheme's convention cost under
// the backend kind the flag implies, with the process-switch terms
// always present (they are only ever charged when Processes > 1).
// It replaces the deleted legacyTrans, which duplicated the isolation
// constants; every number now originates in internal/isolation.
func flagTrans(scheme isolation.Scheme, colorGuard bool) isolation.TransitionCost {
	kind := isolation.GuardPage
	if colorGuard {
		kind = isolation.ColorGuard
	}
	t := isolation.TransitionForScheme(scheme, kind)
	t.SwitchNs, t.RefillNs, t.FlushTLB = isolation.CtxSwitchNs, isolation.CacheRefillNs, true
	return t
}

// SchemeConfig returns the paper's simulation parameters with the cost
// models of an isolation backend kind priced under a transition scheme
// (empty = SchemeDefault): the §6.4.3 comparison is
// SchemeConfig(w, isolation.ColorGuard, "", 1) against
// SchemeConfig(w, isolation.MultiProc, "", n). Per-backend options such
// as the MTE tag-preserving madvise are set on the returned Lifecycle.
func SchemeConfig(w Workload, kind isolation.Kind, scheme isolation.Scheme, processes int) Config {
	cfg := DefaultConfig(w, processes, kind == isolation.ColorGuard)
	cfg.Scheme = isolation.ResolveScheme(scheme)
	cfg.Trans = isolation.TransitionForScheme(cfg.Scheme, kind)
	cfg.Lifecycle = isolation.LifecycleFor(kind, false)
	return cfg
}

// DegradationPoint is one sample of the degradation curve: the
// cumulative request outcomes as of TimeNs of virtual time. Sampled
// every Faults.CurveBucketNs when that is set.
type DegradationPoint struct {
	TimeNs    float64
	Completed int
	Shed      int
	Failed    int
	TimedOut  int
	Retried   int
}

// Result carries the measured outcomes.
type Result struct {
	Completed     int
	Offered       int // requests generated (admitted or shed)
	ThroughputRPS float64
	CtxSwitches   uint64 // process context switches
	Transitions   uint64 // sandbox transitions (user level)
	DTLBMisses    uint64
	MaxConcurrent int

	// Fault-injection and degradation outcomes. All stay zero unless
	// Config.Faults is armed.
	Shed           int    // rejected at admission (queue full or breaker open)
	Retried        int    // retry attempts scheduled after recoverable faults
	Failed         int    // abandoned after exhausting the attempt budget
	TimedOut       int    // dropped at the per-request deadline
	FaultsInjected uint64 // total injector hits across classes
	BreakerOpens   uint64 // circuit-breaker trips
	// Degradation is the cumulative-outcome curve sampled every
	// Faults.CurveBucketNs (nil when unset).
	Degradation []DegradationPoint

	// LifecycleNs is the virtual time spent in instance init/teardown
	// (ColdStart runs only).
	LifecycleNs float64

	// PhaseTotalsNs accumulates, per telemetry phase, the virtual time
	// completed requests spent there (RecordPhases runs only). Summed
	// over Completed requests; PhaseTotalsNs[p]/Completed is the mean.
	PhaseTotalsNs [telemetry.NumPhases]float64
	// PhaseBreakdown holds each completed request's per-phase virtual
	// nanoseconds, in completion order (RecordPhases runs only). Each
	// row sums to the request's arrival-to-completion latency within
	// rounding — the phase-sum conservation invariant.
	PhaseBreakdown [][telemetry.NumPhases]float64

	// Latencies holds each completed request's arrival-to-completion
	// virtual time in ns, in completion order (RecordLatency runs only).
	Latencies []float64
	// LatencyP50Ns/P95Ns/P99Ns are percentiles over Latencies
	// (RecordLatency runs only).
	LatencyP50Ns float64
	LatencyP95Ns float64
	LatencyP99Ns float64
}

// Scheduling constants. The transition and process-switch costs now
// come from the isolation layer's cost models (Config.Trans); what
// stays here is pure scheduler behavior.
const (
	// procSwitchNs is the direct kernel context-switch cost, charged
	// for the background switches every pinned process suffers
	// regardless of isolation mechanism (kernel threads and timers —
	// the constant baseline of Figure 7a).
	procSwitchNs = isolation.CtxSwitchNs
	tlbMissNs    = 10.0 // ≈22 cycles at 2.2 GHz
	runtimePages = 96   // engine/stack/libc pages a request touches
	// The OS scheduler divides its period among runnable processes
	// (CFS-style), floored at a minimum granularity — so the context
	// switch rate grows with the process count, the linear shape of
	// Figure 7a.
	schedPeriodNs  = 600_000.0
	minGranularity = 40_000.0
)

// task is one in-flight request.
type task struct {
	arrivedAt float64 // when the request arrived
	readyAt   float64 // when IO completes
	computeNs float64 // compute remaining
	fullNs    float64 // full compute draw (restored when an attempt's work is lost)
	proc      int
	base      uint64 // instance memory base (for TLB page addresses)
	started   bool   // cold-start init already charged
	attempts  int    // failed attempts so far (fault-armed runs)

	// Phase attribution (RecordPhases runs only). mark is the last
	// clock instant already attributed; the gap up to the next CPU
	// grant splits into IO (until readyAt) and queue (after).
	mark   float64
	phases [telemetry.NumPhases]float64
}

// ioHeap orders tasks by IO completion.
type ioHeap []*task

func (h ioHeap) Len() int           { return len(h) }
func (h ioHeap) Less(i, j int) bool { return h[i].readyAt < h[j].readyAt }
func (h ioHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ioHeap) Push(x any)        { *h = append(*h, x.(*task)) }
func (h *ioHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil // release the reference so the task can be collected
	*h = old[:n-1]
	return t
}

// Run executes the simulation.
func Run(cfg Config) Result {
	if cfg.Processes < 1 {
		cfg.Processes = 1
	}
	rng := stats.NewRNG(cfg.Seed)
	// A Raptor-Lake-sized second-level dTLB.
	tlb := cache.NewTLB(2048, 8)

	// Telemetry is resolved once per run; when disabled the simulation
	// body pays nothing beyond the captured booleans.
	tele := telemetry.Enabled()
	tracing := telemetry.Trace.Enabled()
	var (
		qDepth  *telemetry.Gauge
		latHist *telemetry.Histogram
	)
	if tele {
		qDepth = telemetry.Default.Gauge("faas.queue_depth")
		latHist = telemetry.Default.Histogram("faas.request_latency_ns",
			telemetry.ExpBuckets(1e5, 2, 24))
	}

	trans := cfg.Trans
	if trans == (isolation.TransitionCost{}) {
		// Zero-value Config: derive the cost model from the ColorGuard
		// flag and the transition scheme.
		trans = flagTrans(isolation.ResolveScheme(cfg.Scheme), cfg.ColorGuard)
	}

	// Phase attribution is resolved once per run; when off, the
	// simulation body pays one predictable branch per bookkeeping site
	// and allocates nothing. It never advances the clock either way.
	phasesOn := cfg.RecordPhases || telemetry.SpansEnabled()

	// Fault machinery. A zero Faults config leaves faultsOn false, and
	// every fault branch below is skipped: the run is byte-identical to
	// the pre-fault simulator. An armed config with zero rates and
	// disabled policies runs the branches but changes nothing —
	// TestFaultsArmedButIdleInert holds the fig7b and faultsweep
	// configurations to that.
	fcfg := cfg.Faults
	faultsOn := fcfg.Armed()
	var (
		inj      *fault.Injector
		breaker  *fault.Breaker
		attempts = fcfg.MaxAttempts
	)
	if faultsOn {
		inj = fault.NewInjector(fcfg.Seed)
		breaker = fault.NewBreaker(fcfg.Breaker)
		if attempts < 1 {
			attempts = 1
		}
	}

	var (
		clock     float64
		res       Result
		io        ioHeap
		ready     = make([][]*task, cfg.Processes)
		lastProc  = -1
		nextEpoch float64
		nextBase  uint64
		inFlight  int
		transCost = trans.RoundTripNs()
		rrCursor  int
		nextCurve = fcfg.CurveBucketNs
	)

	// sample appends a degradation-curve point for every curve bucket
	// the clock has crossed.
	sample := func() {
		for nextCurve > 0 && clock >= nextCurve {
			res.Degradation = append(res.Degradation, DegradationPoint{
				TimeNs:    nextCurve,
				Completed: res.Completed,
				Shed:      res.Shed,
				Failed:    res.Failed,
				TimedOut:  res.TimedOut,
				Retried:   res.Retried,
			})
			nextCurve += fcfg.CurveBucketNs
		}
	}

	// fail drops or retries a request after a recoverable fault: the
	// attempt's progress is lost; within the attempt budget the request
	// re-enters the IO heap after the backoff delay, otherwise it is
	// abandoned. Every fault also feeds the circuit breaker.
	fail := func(t *task) {
		breaker.OnFailure(clock)
		t.attempts++
		t.computeNs = t.fullNs
		t.started = false
		if t.attempts >= attempts {
			res.Failed++
			inFlight--
			return
		}
		res.Retried++
		t.readyAt = clock + fcfg.Retry.DelayNs(t.attempts)
		if phasesOn {
			// The backoff window (now → readyAt) is off-CPU waiting;
			// the next CPU grant attributes it from this mark.
			t.mark = clock
		}
		heap.Push(&io, t)
	}

	// touch simulates the TLB traffic of one request's compute slice:
	// the process's runtime pages plus the instance's own pages.
	touch := func(t *task) float64 {
		var penalty float64
		procBase := uint64(t.proc+1) << 40
		for p := 0; p < runtimePages; p++ {
			if !tlb.Access(procBase + uint64(p)*4096) {
				penalty += tlbMissNs
				res.DTLBMisses++
			}
		}
		for p := 0; p < cfg.Workload.Pages; p++ {
			if !tlb.Access(t.base + uint64(p)*4096) {
				penalty += tlbMissNs
				res.DTLBMisses++
			}
		}
		return penalty
	}

	arrive := func() {
		for i := 0; i < cfg.ArrivalsPerEpoch; i++ {
			// The arrival draws happen before any shed decision, so a
			// degraded run sees exactly the offered load of a clean one:
			// faults and policies never perturb the arrival stream.
			jitter := 0.75 + 0.5*rng.Float64()
			t := &task{
				arrivedAt: clock,
				readyAt:   clock + float64(rng.Poisson(cfg.IODelayMeanNs/1e3))*1e3,
				computeNs: cfg.Workload.ComputeNs * jitter,
				proc:      (res.Completed + inFlight) % cfg.Processes,
				base:      uint64(1)<<45 + nextBase,
			}
			t.fullNs = t.computeNs
			if phasesOn {
				t.mark = clock
			}
			nextBase += 1 << 23 // instances 8 MiB apart
			res.Offered++
			if faultsOn {
				// Admission control: a full queue or an open breaker
				// sheds the request immediately (load shedding is the
				// platform's first degradation line — reject cheap,
				// before any isolation or compute cost is sunk).
				if (fcfg.QueueLimit > 0 && inFlight >= fcfg.QueueLimit) ||
					!breaker.Allow(clock) {
					res.Shed++
					continue
				}
			}
			inFlight++
			if inFlight > res.MaxConcurrent {
				res.MaxConcurrent = inFlight
			}
			heap.Push(&io, t)
		}
		if tele {
			qDepth.Set(int64(inFlight))
		}
	}

	drainIO := func() {
		for io.Len() > 0 && io[0].readyAt <= clock {
			t := heap.Pop(&io).(*task)
			ready[t.proc] = append(ready[t.proc], t)
		}
	}

	// pickProc returns the next process (round robin) with ready work,
	// or -1.
	pickProc := func() int {
		for k := 0; k < cfg.Processes; k++ {
			p := (rrCursor + k) % cfg.Processes
			if len(ready[p]) > 0 {
				rrCursor = (p + 1) % cfg.Processes
				return p
			}
		}
		return -1
	}

	// Even a single pinned process is switched out occasionally by
	// kernel threads and timers — the constant baseline rate Figure 7a
	// shows for ColorGuard.
	const backgroundSwitchNs = 4e6
	nextBackground := backgroundSwitchNs

	arrive()
	nextEpoch = cfg.EpochNs
	for clock < cfg.DurationNs {
		sample()
		for clock >= nextEpoch {
			if tracing {
				telemetry.Trace.Span("epoch", "faas", telemetry.PidVirtual, 0,
					nextEpoch-cfg.EpochNs, cfg.EpochNs)
			}
			arrive()
			nextEpoch += cfg.EpochNs
		}
		for clock >= nextBackground {
			clock += procSwitchNs
			tlb.Flush()
			res.CtxSwitches++
			if tracing {
				telemetry.Trace.Instant("ctx-switch (background)", "faas",
					telemetry.PidVirtual, 0, clock)
			}
			nextBackground += backgroundSwitchNs
		}
		drainIO()
		p := pickProc()
		if p < 0 {
			// Idle until the next IO completion or epoch.
			next := nextEpoch
			if io.Len() > 0 && io[0].readyAt < next {
				next = io[0].readyAt
			}
			clock = next
			continue
		}
		if p != lastProc {
			if lastProc >= 0 {
				// OS context switch: direct cost, cold caches, and — for
				// process-separated domains — a dTLB flush.
				clock += trans.SwitchNs + trans.RefillNs
				if trans.FlushTLB {
					tlb.Flush()
				}
				res.CtxSwitches++
				if tracing {
					telemetry.Trace.Instant("ctx-switch", "faas",
						telemetry.PidVirtual, p+1, clock)
				}
			}
			lastProc = p
		}
		// The process's event loop runs ready tasks until its queue
		// drains or the OS slice expires (single process: the epoch is
		// the only bound — no other process contends for the core).
		sliceEnd := clock + cfg.EpochNs
		if cfg.Processes > 1 {
			slice := schedPeriodNs / float64(cfg.Processes)
			if slice < minGranularity {
				slice = minGranularity
			}
			if clock+slice < sliceEnd {
				sliceEnd = clock + slice
			}
		}
		sliceStart := clock
		for len(ready[p]) > 0 && clock < sliceEnd && clock < cfg.DurationNs {
			t := ready[p][0]
			ready[p] = ready[p][1:]
			if phasesOn {
				// The gap since the last attributed instant splits at
				// readyAt: before it the task was off-CPU (IO or
				// backoff), after it ready but waiting for the core.
				if t.readyAt > t.mark {
					t.phases[telemetry.PhaseIO] += t.readyAt - t.mark
					t.phases[telemetry.PhaseQueue] += clock - t.readyAt
				} else {
					t.phases[telemetry.PhaseQueue] += clock - t.mark
				}
				t.mark = clock
			}
			if faultsOn {
				// Deadline: a request that reaches the CPU past its
				// timeout is dropped before any further cost is sunk.
				if fcfg.TimeoutNs > 0 && clock-t.arrivedAt >= fcfg.TimeoutNs {
					res.TimedOut++
					inFlight--
					breaker.OnFailure(clock)
					continue
				}
				// Slot exhaustion strikes at attempt start (a preempted
				// task, computeNs < fullNs, already holds its slot).
				if t.computeNs == t.fullNs &&
					inj.Hit(fault.SlotExhausted, fcfg.Rates.SlotExhausted) {
					fail(t)
					continue
				}
			}
			if cfg.ColdStart && !t.started {
				// Fresh instance per request: mmap+zero plus the
				// backend's coloring cost (re-coloring, since slots cycle
				// through discarding recycles under plain MTE).
				init := cfg.Lifecycle.InitNs(cfg.InstanceBytes, cfg.Lifecycle.RecolorOnReuse)
				clock += init
				res.LifecycleNs += init
				if phasesOn {
					t.phases[telemetry.PhasePlacement] += init
				}
				if faultsOn && inj.Hit(fault.ColdStartFail, fcfg.Rates.ColdStartFail) {
					// The init cost is spent but the instance is dead.
					fail(t)
					continue
				}
				t.started = true
			}
			clock += transCost
			res.Transitions += 2
			if phasesOn {
				t.phases[telemetry.PhaseTransitionIn] += trans.EnterNs
				t.phases[telemetry.PhaseTransitionOut] += trans.LeaveNs
			}
			if faultsOn && inj.Hit(fault.TransitionFault, fcfg.Rates.TransitionFault) {
				// The crossing's cost is paid (enter plus the unwinding
				// leave) but the attempt never reaches its compute.
				fail(t)
				continue
			}
			pen := touch(t)
			clock += pen
			if phasesOn {
				t.phases[telemetry.PhaseExec] += pen
			}
			if faultsOn && inj.Hit(fault.Poisoned, fcfg.Rates.Poisoned) {
				// The instance crashes partway into this attempt's
				// compute: the burned fraction is charged, the progress
				// is lost.
				burn := t.computeNs * inj.Frac()
				clock += burn
				if phasesOn {
					t.phases[telemetry.PhaseExec] += burn
				}
				fail(t)
				continue
			}
			run := t.computeNs
			if clock+run > sliceEnd {
				// Epoch preemption: requeue the remainder.
				run = sliceEnd - clock
				if run < 0 {
					run = 0
				}
				t.computeNs -= run
				clock += run
				if phasesOn {
					t.phases[telemetry.PhaseExec] += run
					t.mark = clock
				}
				ready[p] = append(ready[p], t)
				continue
			}
			clock += run
			res.Completed++
			inFlight--
			if phasesOn {
				t.phases[telemetry.PhaseExec] += run
				for ph, d := range t.phases {
					res.PhaseTotalsNs[ph] += d
				}
				res.PhaseBreakdown = append(res.PhaseBreakdown, t.phases)
			}
			if faultsOn {
				breaker.OnSuccess(clock)
			}
			lat := clock - t.arrivedAt
			if cfg.RecordLatency {
				res.Latencies = append(res.Latencies, lat)
			}
			if tele {
				latHist.Observe(lat)
				qDepth.Set(int64(inFlight))
			}
			if cfg.ColdStart {
				teardown := cfg.Lifecycle.TeardownNs(cfg.InstanceBytes)
				clock += teardown
				res.LifecycleNs += teardown
			}
		}
		if tracing && clock > sliceStart {
			telemetry.Trace.Span("slice", "faas", telemetry.PidVirtual, p+1,
				sliceStart, clock-sliceStart)
		}
	}
	res.ThroughputRPS = float64(res.Completed) / (cfg.DurationNs / 1e9)
	if len(res.Latencies) > 0 {
		res.LatencyP50Ns = stats.Percentile(res.Latencies, 50)
		res.LatencyP95Ns = stats.Percentile(res.Latencies, 95)
		res.LatencyP99Ns = stats.Percentile(res.Latencies, 99)
	}
	if faultsOn {
		sample() // flush curve buckets the final events crossed
		res.FaultsInjected = inj.Total()
		res.BreakerOpens = breaker.Opens()
	}
	if tele {
		tlb.PublishTo(telemetry.Default, "faas.dtlb")
		if faultsOn {
			// Publish only non-zero outcomes, so an armed-but-inert
			// configuration leaves the registry exactly as a clean run
			// would (telemetry inertness extends to the fault layer).
			reg := telemetry.Default
			for c := fault.Class(0); c < fault.NumClasses; c++ {
				if n := inj.Count(c); n > 0 {
					reg.Counter("faas.faults." + c.String()).Add(n)
				}
			}
			addIf := func(name string, n int) {
				if n > 0 {
					reg.Counter(name).Add(uint64(n))
				}
			}
			addIf("faas.shed", res.Shed)
			addIf("faas.retries", res.Retried)
			addIf("faas.failed", res.Failed)
			addIf("faas.timeouts", res.TimedOut)
			if res.BreakerOpens > 0 {
				reg.Counter("faas.breaker_opens").Add(res.BreakerOpens)
			}
		}
	}
	return res
}

// GainVsMultiprocess runs the Figure 6 comparison: ColorGuard in one
// process versus n-process scaling on the same load, returning the
// percentage throughput gain and both results. The two sides are the
// same simulation under two isolation-backend cost models, both priced
// under the given transition scheme (empty = SchemeDefault).
func GainVsMultiprocess(w Workload, scheme isolation.Scheme, n int) (gainPct float64, cg, mp Result) {
	cg = Run(SchemeConfig(w, isolation.ColorGuard, scheme, 1))
	mp = Run(SchemeConfig(w, isolation.MultiProc, scheme, n))
	gainPct = (cg.ThroughputRPS/mp.ThroughputRPS - 1) * 100
	return gainPct, cg, mp
}
