// Package isolation is the unified isolation-backend layer: one slot
// lifecycle (NewReserved → Allocate → Grow → Recycle → Release) shared
// by every mechanism the paper compares — guard-page SFI, ColorGuard's
// MPK page striping (§3.2, §5.1), ColorGuard-MTE granule tagging (§7),
// and classic N-process scaling (§6.4.3) — plus the transition- and
// lifecycle-cost models those mechanisms differ on.
//
// The paper's central comparison is exactly the Kind axis of one
// Backend: every mechanism places instances into slots the same way,
// but each pays different costs to cross the isolation boundary
// (TransitionCost) and to initialize or recycle a slot (LifecycleCost).
// The runtime (internal/rt), the FaaS simulator (internal/faas), and
// the experiments (internal/exp) all consume the same Backend, so the
// §6.4 tables and the §7 MTE numbers come from one code path. A new
// mechanism is a new Kind plus its branches in Backend and the cost
// models.
package isolation

import (
	"repro/internal/mem"
	"repro/internal/pool"
)

// Kind names an isolation backend.
type Kind string

// The four backends of the paper's comparison.
const (
	// GuardPage is classic guard-region SFI: slots are separated by
	// dead PROT_NONE address space sized to the guard requirement.
	GuardPage Kind = "guardpage"

	// ColorGuard stripes slots with MPK protection keys so guard space
	// is reclaimed as differently-colored neighbor slots (§3.2).
	ColorGuard Kind = "colorguard"

	// MTE colors 16-byte granules with ARM memory-tagging tags instead
	// of coloring pages with PTE keys (§7).
	MTE Kind = "mte"

	// MultiProc is the strategy ColorGuard replaces: one OS process per
	// isolation domain, paying context-switch and cache/TLB refill
	// costs at every domain crossing (§6.4.3).
	MultiProc Kind = "multiproc"
)

// Kinds returns every backend kind, in the paper's comparison order.
func Kinds() []Kind { return []Kind{GuardPage, ColorGuard, MTE, MultiProc} }

// Config describes the slot geometry a backend manages. It mirrors the
// pooling allocator's parameters (§5.1) plus the per-mechanism options.
type Config struct {
	// Slots is the slot count; 0 fills TotalBytes.
	Slots int

	// MaxMemoryBytes is the largest linear memory a slot must hold.
	MaxMemoryBytes uint64

	// GuardBytes is the guard requirement between a sandbox and the
	// next region it must never reach.
	GuardBytes uint64

	// PreGuardBytes reserves a shared pre-guard before the first slot
	// (the signed-offset scheme).
	PreGuardBytes uint64

	// TotalBytes caps the slab reservation; required when Slots is 0.
	TotalBytes uint64

	// Keys is the number of MPK keys available (ColorGuard only).
	Keys int

	// Processes is the process count (MultiProc only); slots are dealt
	// round-robin across processes.
	Processes int

	// PreserveTagsOnMadvise selects §7's proposed fix (MTE only): an
	// madvise flag that leaves granule tags invariant, making recycling
	// as cheap as under MPK.
	PreserveTagsOnMadvise bool

	// Scheme selects the transition calling-convention scheme the
	// backend's TransitionCost is priced under. Empty means
	// SchemeDefault.
	Scheme Scheme
}

// Slot is one allocated isolation domain: where the instance's linear
// memory lives and how the backend marks it. Exactly one of Pkey/Tag is
// meaningful per backend; Proc identifies the owning OS process under
// MultiProc.
type Slot struct {
	Index    int
	Addr     uint64
	Pkey     uint8 // MPK color (ColorGuard)
	Tag      uint8 // MTE granule tag (MTE)
	Proc     int   // owning process (MultiProc)
	MaxBytes uint64
}

// TransitionCost is the per-boundary-crossing cost model (§6.4.1,
// §6.4.3): what entering and leaving an isolation domain costs at user
// level, and what switching between domains costs when domains are OS
// processes.
type TransitionCost struct {
	// EnterNs/LeaveNs is the user-level sandbox transition cost each
	// way: stack switch, ABI adjustment, exception-handler setup, plus
	// the PKRU write under ColorGuard.
	EnterNs float64
	LeaveNs float64

	// SwitchNs/RefillNs is the cost of moving the core between two
	// domains that are separate OS processes: the direct kernel
	// context-switch cost and the L1/L2 warmup the displaced working
	// set causes (Figure 7). Zero for same-process backends.
	SwitchNs float64
	RefillNs float64

	// FlushTLB reports whether a domain switch flushes the dTLB
	// (process switches do; user-level transitions keep it warm).
	FlushTLB bool
}

// RoundTripNs is the enter+leave cost of one sandbox invocation.
func (t TransitionCost) RoundTripNs() float64 { return t.EnterNs + t.LeaveNs }

// LifecycleCost is the per-slot init/recycle cost model (§7): a base
// cost proportional to the memory size, plus per-byte coloring terms
// where the mechanism stores colors in memory rather than PTEs.
type LifecycleCost struct {
	// InitBaseNs is the mmap+zero cost per 64 KiB of linear memory.
	InitBaseNs float64

	// ColorNsPerByte is the extra per-byte cost of applying the
	// backend's coloring to fresh memory (MTE's user-level tagging;
	// zero for PTE-based coloring, which piggybacks on mprotect).
	ColorNsPerByte float64

	// TeardownBaseNs is the madvise(MADV_DONTNEED) cost per 64 KiB.
	TeardownBaseNs float64

	// DecolorNsPerByte is the extra per-byte teardown cost where
	// recycling discards the coloring (MTE without the tag-preserving
	// madvise).
	DecolorNsPerByte float64

	// RecolorOnReuse reports whether a recycled slot must be recolored
	// before reuse (MTE without the fix; MPK colors live in PTEs and
	// survive madvise).
	RecolorOnReuse bool
}

// InitNs returns the cost of initializing bytes of slot memory; recolor
// selects the coloring term (first use, or reuse after a discarding
// recycle).
func (l LifecycleCost) InitNs(bytes uint64, recolor bool) float64 {
	cost := l.InitBaseNs * float64(bytes) / 65536
	if recolor {
		cost += l.ColorNsPerByte * float64(bytes)
	}
	return cost
}

// TeardownNs returns the cost of recycling bytes of slot memory.
func (l LifecycleCost) TeardownNs(bytes uint64) float64 {
	return l.TeardownBaseNs*float64(bytes)/65536 + l.DecolorNsPerByte*float64(bytes)
}

// Measured cost constants shared by the backends' models: the §6.4.1
// transition measurements at 2.2 GHz and the standard Linux same-core
// context-switch figures behind Figure 7.
const (
	// TransitionNs is one sandbox transition without ColorGuard.
	TransitionNs = 30.34
	// TransitionPKRUNs adds the ~44-cycle WRPKRU each way.
	TransitionPKRUNs = 51.52
	// CtxSwitchNs is the direct kernel process-switch cost.
	CtxSwitchNs = 3500.0
	// CacheRefillNs models the post-switch L1/L2 warmup (a 48 KiB L1
	// alone is ~750 lines), the "resource contention" of Figure 7.
	CacheRefillNs = 3200.0
)

// transitionDefault is the historical cost switch, kept verbatim so the
// default scheme is bit-exact with every pre-scheme number: the faas
// simulator integrates these floats over millions of virtual-time
// events, where even one ulp would shift a golden table.
func transitionDefault(kind Kind) TransitionCost {
	switch kind {
	case ColorGuard:
		return TransitionCost{EnterNs: TransitionPKRUNs, LeaveNs: TransitionPKRUNs}
	case MultiProc:
		return TransitionCost{
			EnterNs: TransitionNs, LeaveNs: TransitionNs,
			SwitchNs: CtxSwitchNs, RefillNs: CacheRefillNs, FlushTLB: true,
		}
	default: // GuardPage, MTE: plain user-level transitions.
		return TransitionCost{EnterNs: TransitionNs, LeaveNs: TransitionNs}
	}
}

// Measured §7 lifecycle constants (ns) for 64 KiB linear memories on
// real MTE hardware (a Pixel 8 Pro), expressed per 64 KiB or per byte.
// The paper makes two observations about them:
//
//	Observation 1 — user-level tagging moves at most two 16-byte
//	granules per instruction, so striping a linear memory is slow:
//	initializing a 64 KiB memory goes from 79 µs to 2,182 µs.
//
//	Observation 2 — madvise(MADV_DONTNEED) discards tags, so recycling
//	a slot (free under MPK, whose colors live in PTEs) costs extra on
//	teardown (29 µs → 377 µs) and forces a full re-tag on the next
//	allocation.
//
// The proposed fix, a tag-preserving madvise flag, is modeled by
// Config.PreserveTagsOnMadvise so its benefit can be quantified.
const (
	InitBaseNs     = 79_000.0 // mmap + zeroing, no MTE
	TeardownBaseNs = 29_000.0 // madvise(MADV_DONTNEED), no MTE
	// Tagging measured: 2,182 µs total - 79 µs base over 64 KiB.
	TagNsPerByte = (2_182_000.0 - InitBaseNs) / 65536
	// Teardown with tag discarding: 377 µs total - 29 µs base.
	TagClearNsPerByte = (377_000.0 - TeardownBaseNs) / 65536
)

// LifecycleFor returns the lifecycle cost model of a backend kind. The
// base terms are the §7 measurements for mmap+zero and madvise; only
// MTE adds coloring terms, and only without the tag-preserving madvise
// does recycling discard the colors.
func LifecycleFor(kind Kind, preserveTags bool) LifecycleCost {
	lc := LifecycleCost{InitBaseNs: InitBaseNs, TeardownBaseNs: TeardownBaseNs}
	if kind == MTE {
		lc.ColorNsPerByte = TagNsPerByte
		if !preserveTags {
			lc.DecolorNsPerByte = TagClearNsPerByte
			lc.RecolorOnReuse = true
		}
	}
	return lc
}

// PlanLayout computes the slot layout NewReserved would use for a kind,
// without reserving address space — the pure §6.4.2 density math.
func PlanLayout(kind Kind, cfg Config) (pool.Layout, error) {
	return pool.ComputeLayout(poolConfig(kind, cfg))
}

// poolConfig translates an isolation Config into the pooling
// allocator's geometry. Only ColorGuard stripes; every other mechanism
// separates slots with real guard space (MTE colors granules inside the
// slot, processes have disjoint address spaces).
func poolConfig(kind Kind, cfg Config) pool.Config {
	pc := pool.Config{
		NumSlots:       cfg.Slots,
		MaxMemoryBytes: cfg.MaxMemoryBytes,
		GuardBytes:     cfg.GuardBytes,
		PreGuardBytes:  cfg.PreGuardBytes,
		TotalBytes:     cfg.TotalBytes,
	}
	if kind == ColorGuard {
		pc.Keys = cfg.Keys
	}
	return pc
}

// Placement describes where a runtime instance's linear memory lives
// and under which isolation domain it runs. internal/rt consumes this
// instead of raw (AS, base, pkey) triples.
type Placement struct {
	// AS, when non-nil, is the shared address space of a pooled
	// backend; Slot.Addr is then the instance's slot base. Nil means
	// the runtime makes a standalone reservation and applies Slot's
	// coloring to it.
	AS *mem.AS

	// Slot carries the domain marking (color, tag, process).
	Slot Slot

	// Backend, when non-nil, owns the slot: closing the instance
	// recycles through it.
	Backend *Backend
}

// Place returns the placement for a slot allocated from b.
func Place(b *Backend, s Slot) *Placement {
	return &Placement{AS: b.AS(), Slot: s, Backend: b}
}

// Colored returns a standalone placement carrying an MPK color: the
// runtime reserves its own address space but colors the linear memory
// and restricts PKRU while the instance runs.
func Colored(pkey uint8) *Placement {
	return &Placement{Slot: Slot{Pkey: pkey}}
}
