// Package fault is the deterministic fault-injection and
// graceful-degradation layer of the FaaS simulation: a seeded injector
// that decides, per request, whether one of the production failure
// modes strikes — cold-start initialization failures, slot-allocation
// exhaustion, faulting sandbox transitions, poisoned (crashing)
// instances — plus the pure policy math the platform degrades through:
// retry with exponential backoff, per-request deadlines, admission
// control (a bounded queue that sheds load), and a circuit breaker.
//
// Everything here is expressed in virtual nanoseconds and driven by a
// dedicated RNG stream, so three properties hold by construction:
//
//   - Determinism: the same Config (seed included) produces the same
//     fault sequence, the same degraded schedule, and the same
//     telemetry, run after run, on any machine.
//   - Independence: the injector's RNG stream is separate from the
//     simulation's arrival/IO stream, so an injected fault never
//     perturbs which requests arrive or when their IO completes — a
//     faulty run sees exactly the offered load of a clean run.
//   - Inertness: a zero rate draws nothing from the stream and a zero
//     Config arms nothing; internal/faas's results are identical with
//     the fault machinery armed but idle (see
//     faas.TestFaultsArmedButIdleInert).
//
// internal/faas consumes this package through faas.Config.Faults; the
// exp "faultsweep" experiment and cmd/faassim's -faultrate/-timeout/
// -retries/-shed flags drive it from above.
package fault

import "repro/internal/stats"

// Class names one injected failure mode.
type Class int

// The four fault classes the FaaS simulation injects.
const (
	// ColdStartFail: a fresh instance's init (mmap+zero+coloring)
	// fails after its cost is spent — the fork/exec and page-table
	// races real platforms hit under churn.
	ColdStartFail Class = iota

	// SlotExhausted: the pooling allocator has no free slot for this
	// attempt; the request backs off and retries.
	SlotExhausted

	// TransitionFault: a sandbox boundary crossing faults (PKRU
	// mismatch, segment fault, signal delivered mid-trampoline); the
	// crossing's cost is paid and the attempt restarts.
	TransitionFault

	// Poisoned: the instance crashes partway through compute; the
	// attempt's progress is lost and the request needs a fresh
	// instance.
	Poisoned

	// NumClasses is the number of fault classes.
	NumClasses
)

// String returns the class's telemetry-friendly name.
func (c Class) String() string {
	switch c {
	case ColdStartFail:
		return "coldstart"
	case SlotExhausted:
		return "slot_exhausted"
	case TransitionFault:
		return "transition"
	case Poisoned:
		return "poisoned"
	}
	return "unknown"
}

// Rates holds the per-request injection probability of each class.
// The zero value injects nothing.
type Rates struct {
	ColdStartFail   float64
	SlotExhausted   float64
	TransitionFault float64
	Poisoned        float64
}

// Rate returns the probability configured for a class.
func (r Rates) Rate(c Class) float64 {
	switch c {
	case ColdStartFail:
		return r.ColdStartFail
	case SlotExhausted:
		return r.SlotExhausted
	case TransitionFault:
		return r.TransitionFault
	case Poisoned:
		return r.Poisoned
	}
	return 0
}

// RatesFor scales a base per-request fault rate into each backend's
// characteristic mix. The weights model where each mechanism is
// fragile: multi-process cold starts involve fork/exec and fresh page
// tables (double weight, and crossings fault more because signals land
// mid-switch); ColorGuard's striped slots contend on stripe allocation
// (double slot exhaustion) but its user-level transitions rarely fault;
// MTE pays both tagging init and tag-check faults. A base of 0 returns
// the zero Rates. Backend names follow isolation.Kind strings; unknown
// names get the guard-page mix.
func RatesFor(backend string, base float64) Rates {
	if base <= 0 {
		return Rates{}
	}
	switch backend {
	case "multiproc":
		return Rates{ColdStartFail: 2 * base, SlotExhausted: base / 2, TransitionFault: base / 2, Poisoned: base}
	case "colorguard":
		return Rates{ColdStartFail: base / 2, SlotExhausted: 2 * base, TransitionFault: base / 4, Poisoned: base}
	case "mte":
		return Rates{ColdStartFail: base, SlotExhausted: base, TransitionFault: base / 2, Poisoned: base}
	default: // guardpage and anything unrecognized
		return Rates{ColdStartFail: base, SlotExhausted: base, TransitionFault: base / 4, Poisoned: base}
	}
}

// Config is the complete fault-injection and degradation-policy
// configuration of one simulation run. It is a comparable value type:
// the zero Config means "fault machinery disarmed" and internal/faas
// guarantees a run under the zero Config is byte-identical to a run
// without the machinery at all.
type Config struct {
	// Seed seeds the injector's dedicated RNG stream. Independent of
	// the simulation seed: faults never perturb arrivals or IO.
	Seed uint64

	// Rates are the per-class injection probabilities.
	Rates Rates

	// MaxAttempts is the total attempt budget per request for
	// recoverable faults: 1 (or 0) means a single attempt — any fault
	// fails the request; n allows n-1 retries.
	MaxAttempts int

	// Retry is the backoff schedule between attempts.
	Retry Backoff

	// TimeoutNs is the per-request deadline in virtual nanoseconds
	// from arrival; a request that reaches the CPU past its deadline
	// is dropped. 0 disables.
	TimeoutNs float64

	// QueueLimit bounds the number of in-flight requests; arrivals
	// beyond it are shed at admission. 0 means unbounded.
	QueueLimit int

	// Breaker configures the circuit breaker consulted at admission.
	Breaker BreakerConfig

	// CurveBucketNs, when set, samples the cumulative
	// completed/shed/failed/timed-out counts every bucket of virtual
	// time into Result.Degradation — the degradation curve.
	CurveBucketNs float64
}

// Armed reports whether any part of the fault machinery is configured.
// internal/faas skips every fault branch when false.
func (c Config) Armed() bool { return c != Config{} }

// Injector draws fault decisions from a dedicated deterministic RNG
// stream and counts what it injected, per class. Not safe for
// concurrent use; each simulation run owns one.
type Injector struct {
	rng    *stats.RNG
	counts [NumClasses]uint64
}

// NewInjector returns an injector seeded with its own splitmix-expanded
// stream.
func NewInjector(seed uint64) *Injector {
	return &Injector{rng: stats.NewRNG(seed)}
}

// Hit reports whether a fault of class c strikes at probability rate.
// A rate <= 0 returns false without consuming the stream, so disabled
// classes leave the draw sequence of enabled ones unchanged.
func (in *Injector) Hit(c Class, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if in.rng.Float64() >= rate {
		return false
	}
	in.counts[c]++
	return true
}

// Frac returns a uniform draw in [0, 1) from the injector stream —
// used to place a poisoned instance's crash point inside the attempt's
// compute.
func (in *Injector) Frac() float64 { return in.rng.Float64() }

// Count returns how many faults of class c have been injected.
func (in *Injector) Count(c Class) uint64 { return in.counts[c] }

// Total returns the number of faults injected across all classes.
func (in *Injector) Total() uint64 {
	var t uint64
	for _, n := range in.counts {
		t += n
	}
	return t
}
