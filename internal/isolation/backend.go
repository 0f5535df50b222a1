package isolation

import (
	"errors"
	"fmt"

	"repro/internal/colorguard"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Slot allocation errors.
var (
	// ErrExhausted is returned by Allocate when no slots are free.
	ErrExhausted = errors.New("isolation: no free slots")

	// ErrDoubleFree is returned by Recycle for a slot that is not
	// allocated: pushing it onto the free list again would hand the same
	// slot to two instances and break the striping safety argument.
	ErrDoubleFree = errors.New("isolation: slot is not allocated (double free)")
)

// Backend is one reserved slab of isolation slots: the Wasmtime-style
// pooling allocator of §5.1 (a single PROT_NONE mmap split into
// fixed-size slots by pool.ComputeLayout, recycled with
// madvise(MADV_DONTNEED)) plus the mechanism's cost models and the
// accumulated lifecycle accounting. Every mechanism shares the slab; the
// few steps where they differ are per-kind branches:
//
//   - GuardPage separates slots with dead PROT_NONE space covering the
//     whole guard requirement; its only price is address-space density.
//   - ColorGuard stripes slots with MPK keys (pkey_mprotect at Allocate
//     and Grow). Colors live in PTEs, so they survive madvise recycling
//     for free — the §7 advantage over MTE.
//   - MTE gives slot i the granule tag TagForSlot(i). Tagging is paid
//     per byte when a slot is first used, and — unless
//     Config.PreserveTagsOnMadvise — again after every recycle, because
//     madvise discards tags with the pages.
//   - MultiProc deals slots round-robin across Config.Processes OS
//     processes; its price is the context switch TransitionCost charges.
//
// The lifecycle is NewReserved → Allocate → Grow → Recycle → Release.
type Backend struct {
	kind      Kind
	as        *mem.AS
	layout    pool.Layout
	base      uint64
	processes int

	scheme Scheme
	trans  TransitionCost
	life   LifecycleCost

	free  []int  // LIFO free list of slot indices
	inUse []bool // per slot

	// tags is the MTE tag state per slot (nil for every other kind).
	// Slot i's tag is always TagForSlot(i); what varies is whether the
	// slot currently holds it and how many bytes from its base carry it.
	tags []slotTag

	initNs     float64
	teardownNs float64

	// Lifecycle telemetry (isolation.<kind>.allocates/.recycles/.grows/
	// .colors). Lifecycle events are per-instance, not per-instruction,
	// so the single atomic add per event is paid unconditionally.
	ctrAlloc   *telemetry.Counter
	ctrRecycle *telemetry.Counter
	ctrGrow    *telemetry.Counter
	ctrColor   *telemetry.Counter
}

type slotTag struct {
	tagged bool
	bytes  uint64
}

// TagForSlot returns the MTE tag of slot i: colors cycle through the 15
// non-zero tags, mirroring the MPK striping pattern in tag space.
func TagForSlot(i int) uint8 { return uint8(1 + i%15) }

// NewReserved reserves a slab for a backend kind inside as. It refuses a
// geometry whose concrete slot layout would let a sandbox reach a
// same-colored neighbor.
func NewReserved(kind Kind, as *mem.AS, cfg Config) (*Backend, error) {
	switch kind {
	case GuardPage, ColorGuard, MTE, MultiProc:
	default:
		return nil, fmt.Errorf("isolation: unknown backend kind %q", kind)
	}
	l, err := PlanLayout(kind, cfg)
	if err != nil {
		return nil, fmt.Errorf("isolation: %s: %w", kind, err)
	}
	if err := checkIsolation(l); err != nil {
		return nil, fmt.Errorf("isolation: %s slot layout unsafe: %w", kind, err)
	}
	base, err := as.MmapAnywhere(l.TotalSlabBytes, mem.ProtNone)
	if err != nil {
		return nil, fmt.Errorf("isolation: %s: reserving slab: %w", kind, err)
	}
	b := &Backend{
		kind:      kind,
		as:        as,
		layout:    l,
		base:      base,
		processes: max(cfg.Processes, 1),
		scheme:    ResolveScheme(cfg.Scheme),
		life:      LifecycleFor(kind, cfg.PreserveTagsOnMadvise),
		free:      make([]int, l.NumSlots),
		inUse:     make([]bool, l.NumSlots),
	}
	b.trans = TransitionForScheme(b.scheme, kind)
	for i := range b.free {
		b.free[i] = l.NumSlots - 1 - i
	}
	if kind == MTE {
		b.tags = make([]slotTag, l.NumSlots)
	}
	pfx := "isolation." + string(kind)
	b.ctrAlloc = telemetry.Default.Counter(pfx + ".allocates")
	b.ctrRecycle = telemetry.Default.Counter(pfx + ".recycles")
	b.ctrGrow = telemetry.Default.Counter(pfx + ".grows")
	b.ctrColor = telemetry.Default.Counter(pfx + ".colors")
	return b, nil
}

// checkIsolation validates the striping safety property on a concrete
// layout: same-colored slots are at least the guard requirement apart,
// and the final slot is protected by the post-slab guard. Small slabs
// are checked exhaustively; large ones use the analytic form (slots are
// uniformly spaced, so the nearest same-color pair determines the
// bound).
func checkIsolation(l pool.Layout) error {
	if l.NumSlots <= 4096 {
		addrs := make([]uint64, l.NumSlots)
		for i := range addrs {
			addrs[i] = uint64(i) * l.SlotBytes
		}
		keyOf := func(i int) uint8 { return colorguard.KeyForSlot(i, l.NumStripes) }
		if err := colorguard.CheckStriping(addrs, l.MaxMemoryBytes, l.GuardBytes, keyOf); err != nil {
			return err
		}
	} else if l.NumStripes > 1 {
		gap := uint64(l.NumStripes)*l.SlotBytes - l.MaxMemoryBytes
		if gap < l.GuardBytes {
			return fmt.Errorf("same-color gap %d below guard requirement %d", gap, l.GuardBytes)
		}
	}
	if l.PostSlabGuardBytes < l.GuardBytes {
		return fmt.Errorf("post-slab guard %d below requirement %d", l.PostSlabGuardBytes, l.GuardBytes)
	}
	return nil
}

// Allocate takes a free slot, opens initialBytes of it read-write with
// the mechanism's marking applied, and charges the lifecycle init cost
// (including tagging when the slot does not hold its MTE tag).
func (b *Backend) Allocate(initialBytes uint64) (Slot, error) {
	if len(b.free) == 0 {
		return Slot{}, ErrExhausted
	}
	i := b.free[len(b.free)-1]
	s := Slot{
		Index:    i,
		Addr:     b.base + b.layout.PreSlabGuardBytes + uint64(i)*b.layout.SlotBytes,
		Pkey:     colorguard.KeyForSlot(i, b.layout.NumStripes),
		MaxBytes: b.layout.MaxMemoryBytes,
	}
	switch b.kind {
	case MTE:
		s.Tag = TagForSlot(i)
	case MultiProc:
		s.Proc = i % b.processes
	}
	if initialBytes > s.MaxBytes {
		return Slot{}, fmt.Errorf("isolation: initial size %d exceeds slot maximum %d", initialBytes, s.MaxBytes)
	}
	if initialBytes > 0 {
		if err := b.open(s, initialBytes); err != nil {
			return Slot{}, fmt.Errorf("isolation: opening slot %d: %w", i, err)
		}
	}
	b.free = b.free[:len(b.free)-1]
	b.inUse[i] = true

	recolor := b.tags != nil && !b.tags[i].tagged
	if recolor {
		b.tags[i] = slotTag{tagged: true, bytes: initialBytes}
	}
	b.initNs += b.life.InitNs(initialBytes, recolor)
	b.ctrAlloc.Inc()
	if recolor || s.Pkey != 0 {
		b.ctrColor.Inc()
	}
	return s, nil
}

// Grow opens more of an allocated slot, up to its maximum, keeping the
// slot's marking: the MPK color is re-applied with pkey_mprotect and
// the MTE tag extends over the new bytes (tagging is idempotent and is
// charged once, at Allocate).
func (b *Backend) Grow(s Slot, upTo uint64) error {
	if upTo > s.MaxBytes {
		return fmt.Errorf("isolation: grow beyond slot maximum")
	}
	if err := b.open(s, upTo); err != nil {
		return err
	}
	b.ctrGrow.Inc()
	if b.tags != nil && upTo > b.tags[s.Index].bytes {
		b.tags[s.Index].bytes = upTo
	}
	return nil
}

// open makes the first n bytes of a slot read-write under its color.
func (b *Backend) open(s Slot, n uint64) error {
	n = pageUp(n)
	if s.Pkey != 0 {
		return b.as.PkeyMprotect(s.Addr, n, mem.ProtRead|mem.ProtWrite, s.Pkey)
	}
	return b.as.Mprotect(s.Addr, n, mem.ProtRead|mem.ProtWrite)
}

// Recycle returns a slot to the free list: its contents are discarded
// with madvise(MADV_DONTNEED), which keeps the mapping and its MPK color
// but drops MTE tags (unless the tag-preserving madvise is modeled), and
// the lifecycle teardown cost is charged. Recycling a slot that is not
// allocated returns ErrDoubleFree and changes nothing.
func (b *Backend) Recycle(s Slot) error {
	if s.Index < 0 || s.Index >= len(b.inUse) || !b.inUse[s.Index] {
		return fmt.Errorf("%w: slot %d", ErrDoubleFree, s.Index)
	}
	b.inUse[s.Index] = false
	// Cannot fail: the slot is page-aligned inside the mapped slab.
	_ = b.as.MadviseDontneed(s.Addr, pageUp(s.MaxBytes))
	b.free = append(b.free, s.Index)
	b.teardownNs += b.life.TeardownNs(s.MaxBytes)
	b.ctrRecycle.Inc()
	if b.life.RecolorOnReuse {
		b.tags[s.Index] = slotTag{}
	}
	return nil
}

// Release unmaps the whole slab; no slot can be allocated afterwards.
func (b *Backend) Release() error {
	b.free = nil
	return b.as.Munmap(b.base, b.layout.TotalSlabBytes)
}

// Kind identifies the mechanism.
func (b *Backend) Kind() Kind { return b.kind }

// AS returns the address space the slab lives in.
func (b *Backend) AS() *mem.AS { return b.as }

// Layout returns the computed slab geometry.
func (b *Backend) Layout() pool.Layout { return b.layout }

// Capacity returns the total slot count.
func (b *Backend) Capacity() int { return b.layout.NumSlots }

// Available returns the free slot count.
func (b *Backend) Available() int { return len(b.free) }

// TransitionCost returns the per-boundary-crossing cost model, priced
// under the backend's transition scheme.
func (b *Backend) TransitionCost() TransitionCost { return b.trans }

// Scheme returns the transition scheme the backend was reserved under.
func (b *Backend) Scheme() Scheme { return b.scheme }

// LifecycleCost returns the per-slot init/recycle cost model.
func (b *Backend) LifecycleCost() LifecycleCost { return b.life }

// LifecycleNs returns the accumulated init and teardown time charged by
// Allocate and Recycle so far.
func (b *Backend) LifecycleNs() (initNs, teardownNs float64) {
	return b.initNs, b.teardownNs
}

func pageUp(n uint64) uint64 {
	return (n + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
}
