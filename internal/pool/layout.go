// Package pool is the slot-layout math of the Wasmtime-style pooling
// allocator of §5.1: a single large mmap (the slab) split into
// fixed-size slots delimited by guard regions and — with ColorGuard —
// striped with MPK colors so slots can pack into the space classic
// layouts waste on guards. The live allocator built on this geometry is
// isolation.Backend.
//
// The slot-layout computation is the security-critical piece the paper
// formally verified (§5.2, Table 1). ComputeLayout is the fixed version
// enforcing all ten invariants; ComputeLayoutLegacy preserves the
// pre-verification behaviour — a saturating addition that should have
// been checked, and four missing preconditions — so internal/verify can
// demonstrate finding the bug.
package pool

import (
	"errors"
	"fmt"

	"repro/internal/colorguard"
	"repro/internal/mem"
)

// WasmPageSize is the Wasm linear-memory page size (64 KiB); OSPageSize
// is the host page size.
const (
	WasmPageSize = 64 * 1024
	OSPageSize   = mem.PageSize
)

// Config describes a requested pool geometry, mirroring the parameters
// Wasmtime's memory pool accepts (§5.1): slot count, per-instance
// maximum memory, guard sizes, whether pre-guards are used, and how
// many protection keys striping may use.
type Config struct {
	// NumSlots is the requested slot count; 0 means "as many as fit in
	// TotalBytes".
	NumSlots int

	// MaxMemoryBytes is the largest linear memory an instance may grow
	// to; the slot must hold it (invariant 2).
	MaxMemoryBytes uint64

	// ExpectedSlotBytes is the per-sandbox memory reservation the
	// compiler assumes without striping (the addressable region,
	// excluding guards; ≥ MaxMemoryBytes). 0 derives it from
	// MaxMemoryBytes.
	ExpectedSlotBytes uint64

	// GuardBytes is the dead space that must separate a sandbox from
	// the next identically-colored (or unmanaged) region.
	GuardBytes uint64

	// PreGuardBytes, when non-zero, reserves a shared pre-guard before
	// the first slot (the signed-offset 2 GiB scheme).
	PreGuardBytes uint64

	// Keys is the number of MPK keys available for striping (0 or 1
	// disables ColorGuard).
	Keys int

	// TotalBytes caps the slab's address-space reservation; required
	// when NumSlots is 0.
	TotalBytes uint64
}

// Layout is the computed slab geometry — the explicit contract between
// the allocator and the compiler (§5.1).
type Layout struct {
	PreSlabGuardBytes  uint64
	SlotBytes          uint64
	PostSlabGuardBytes uint64
	NumSlots           int
	NumStripes         int
	TotalSlabBytes     uint64

	// Echoed inputs the invariants refer to.
	MaxMemoryBytes    uint64
	ExpectedSlotBytes uint64
	GuardBytes        uint64
}

// BytesToNextStripeSlot returns the distance from a slot's start to the
// next slot of the same color — the quantity invariant 6 bounds.
func (l Layout) BytesToNextStripeSlot() uint64 {
	return l.SlotBytes * uint64(l.NumStripes)
}

// Layout computation errors.
var (
	ErrOverflow  = errors.New("pool: layout arithmetic overflow")
	ErrTooSmall  = errors.New("pool: slot cannot hold maximum memory")
	ErrNoBudget  = errors.New("pool: total byte budget required when NumSlots is 0")
	ErrNoFit     = errors.New("pool: no slots fit in the byte budget")
	ErrUnaligned = errors.New("pool: size parameter not page-aligned")
	ErrBadConfig = errors.New("pool: invalid configuration")
)

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}

func checkedAdd(a, b uint64) (uint64, error) {
	s := a + b
	if s < a {
		return 0, ErrOverflow
	}
	return s, nil
}

func checkedMul(a, b uint64) (uint64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/a != b {
		return 0, ErrOverflow
	}
	return p, nil
}

// satAdd and satMul are the saturating forms the legacy computation
// used — the §5.2 bug: when they actually saturate, the resulting
// layout silently violates Table 1's invariant 1.
func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/a != b {
		return ^uint64(0)
	}
	return p
}

// ComputeLayout derives the slab layout for cfg, enforcing every
// precondition and invariant of Table 1 (1–10). It is the
// post-verification version: checked arithmetic throughout, and inputs
// that would produce an unsafe layout are rejected rather than
// accepted.
func ComputeLayout(cfg Config) (Layout, error) {
	// Missing preconditions 7-10 revealed by verification, now checked.
	if cfg.MaxMemoryBytes == 0 {
		return Layout{}, fmt.Errorf("%w: zero maximum memory", ErrBadConfig)
	}
	if cfg.MaxMemoryBytes%WasmPageSize != 0 {
		return Layout{}, fmt.Errorf("%w: max memory %d not a multiple of the Wasm page size", ErrUnaligned, cfg.MaxMemoryBytes)
	}
	if cfg.ExpectedSlotBytes != 0 && cfg.ExpectedSlotBytes%WasmPageSize != 0 {
		return Layout{}, fmt.Errorf("%w: expected slot bytes %d not a multiple of the Wasm page size", ErrUnaligned, cfg.ExpectedSlotBytes)
	}
	if cfg.GuardBytes%OSPageSize != 0 || cfg.PreGuardBytes%OSPageSize != 0 {
		return Layout{}, fmt.Errorf("%w: guard sizes must be multiples of the OS page size", ErrUnaligned)
	}
	if cfg.NumSlots < 0 || cfg.Keys < 0 {
		return Layout{}, ErrBadConfig
	}

	expected := cfg.ExpectedSlotBytes
	if expected == 0 {
		expected = alignUp(cfg.MaxMemoryBytes, WasmPageSize)
	}
	if expected < cfg.MaxMemoryBytes {
		return Layout{}, ErrTooSmall
	}

	// footprint is what one sandbox occupies without striping: its
	// memory reservation plus the guard that must follow it.
	footprint, err := checkedAdd(expected, cfg.GuardBytes)
	if err != nil {
		return Layout{}, err
	}
	base := alignUp(cfg.MaxMemoryBytes, OSPageSize)
	stripes := colorguard.StripeCount(base, cfg.GuardBytes, cfg.Keys)
	// A fixed slot count bounds the usable stripes up front; in the
	// budget-filling case the computed count always exceeds the key
	// count, so no recomputation is needed there.
	if cfg.NumSlots > 0 && stripes > cfg.NumSlots {
		stripes = cfg.NumSlots
	}
	// Striped slot size: carve the footprint into stripes, never below
	// the maximum memory (invariant 2). Because the stride is at least
	// footprint/stripes, the distance back to the same color always
	// covers memory + guard (invariant 6); shortfalls from too few keys
	// surface as a larger stride — the "combination of stripes and
	// guard regions" of §5.1.
	var slot uint64
	if stripes > 1 {
		slot = alignUp(ceilDiv(footprint, uint64(stripes)), OSPageSize)
		if slot < base {
			slot = base
		}
	} else {
		slot = alignUp(footprint, OSPageSize)
	}

	post := alignUp(cfg.GuardBytes, OSPageSize)
	pre := alignUp(cfg.PreGuardBytes, OSPageSize)

	n := cfg.NumSlots
	if n == 0 {
		if cfg.TotalBytes == 0 {
			return Layout{}, ErrNoBudget
		}
		fixed, err := checkedAdd(pre, post)
		if err != nil {
			return Layout{}, err
		}
		if cfg.TotalBytes <= fixed || slot == 0 {
			return Layout{}, ErrNoFit
		}
		n = int((cfg.TotalBytes - fixed) / slot)
		if n == 0 {
			return Layout{}, ErrNoFit
		}
		if stripes > n {
			// A budget too small for one full stripe cycle: fall back
			// to unstriped guard-region slots.
			stripes = 1
			slot = alignUp(footprint, OSPageSize)
			n = int((cfg.TotalBytes - fixed) / slot)
			if n == 0 {
				return Layout{}, ErrNoFit
			}
		}
	}

	slotsTotal, err := checkedMul(slot, uint64(n))
	if err != nil {
		return Layout{}, err
	}
	total, err := checkedAdd(pre, slotsTotal)
	if err != nil {
		return Layout{}, err
	}
	total, err = checkedAdd(total, post)
	if err != nil {
		return Layout{}, err
	}
	if cfg.TotalBytes != 0 && total > cfg.TotalBytes {
		// Invariant 10: the layout must fit the stated budget.
		return Layout{}, fmt.Errorf("%w: layout needs %d bytes, budget is %d", ErrNoFit, total, cfg.TotalBytes)
	}

	l := Layout{
		PreSlabGuardBytes:  pre,
		SlotBytes:          slot,
		PostSlabGuardBytes: post,
		NumSlots:           n,
		NumStripes:         stripes,
		TotalSlabBytes:     total,
		MaxMemoryBytes:     cfg.MaxMemoryBytes,
		ExpectedSlotBytes:  expected,
		GuardBytes:         cfg.GuardBytes,
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// ComputeLayoutLegacy is the pre-verification computation: it performs
// the same derivation with SATURATING arithmetic (the §5.2 bug) and
// without preconditions 7–10, so adversarial inputs yield layouts that
// silently violate the Table 1 invariants. Kept for the verification
// demonstration and regression tests; do not use for real allocation.
func ComputeLayoutLegacy(cfg Config) (Layout, error) {
	expected := cfg.ExpectedSlotBytes
	if expected == 0 {
		expected = alignUp(cfg.MaxMemoryBytes, WasmPageSize)
	}
	footprint := satAdd(expected, cfg.GuardBytes)
	base := alignUp(cfg.MaxMemoryBytes, OSPageSize)
	stripes := colorguard.StripeCount(base, cfg.GuardBytes, cfg.Keys)
	var slot uint64
	if stripes > 1 {
		slot = alignUp(ceilDiv(footprint, uint64(stripes)), OSPageSize)
		if slot < base {
			slot = base
		}
	} else {
		slot = alignUp(footprint, OSPageSize)
	}
	post := alignUp(cfg.GuardBytes, OSPageSize)
	pre := alignUp(cfg.PreGuardBytes, OSPageSize)
	n := cfg.NumSlots
	if n == 0 {
		if cfg.TotalBytes == 0 || slot == 0 {
			return Layout{}, ErrNoBudget
		}
		fixed := satAdd(pre, post)
		if cfg.TotalBytes <= fixed {
			return Layout{}, ErrNoFit
		}
		n = int((cfg.TotalBytes - fixed) / slot)
	}
	if stripes > n && n > 0 {
		stripes = n
	}
	if stripes < 1 {
		stripes = 1
	}
	// THE BUG: saturating instead of checked arithmetic. When the
	// multiply or adds saturate, TotalSlabBytes no longer equals
	// pre + slot*n + post and invariant 1 is broken — silently.
	total := satAdd(satAdd(pre, satMul(slot, uint64(n))), post)
	return Layout{
		PreSlabGuardBytes:  pre,
		SlotBytes:          slot,
		PostSlabGuardBytes: post,
		NumSlots:           n,
		NumStripes:         stripes,
		TotalSlabBytes:     total,
		MaxMemoryBytes:     cfg.MaxMemoryBytes,
		ExpectedSlotBytes:  expected,
		GuardBytes:         cfg.GuardBytes,
	}, nil
}

// Validate checks the Table 1 invariants (1–9) on a computed layout.
// (Invariant 10, budget fit, needs the config and is enforced by
// ComputeLayout.)
func (l Layout) Validate() error {
	// 1: no leaks — the pieces sum to the whole.
	slots, err := checkedMul(l.SlotBytes, uint64(l.NumSlots))
	if err != nil {
		return fmt.Errorf("invariant 1: %w", err)
	}
	sum, err := checkedAdd(l.PreSlabGuardBytes, slots)
	if err != nil {
		return fmt.Errorf("invariant 1: %w", err)
	}
	sum, err = checkedAdd(sum, l.PostSlabGuardBytes)
	if err != nil {
		return fmt.Errorf("invariant 1: %w", err)
	}
	if sum != l.TotalSlabBytes {
		return fmt.Errorf("invariant 1 violated: pre %d + slots %d + post %d != total %d",
			l.PreSlabGuardBytes, slots, l.PostSlabGuardBytes, l.TotalSlabBytes)
	}
	// 2: the memory fits its slot.
	if l.SlotBytes < l.MaxMemoryBytes {
		return fmt.Errorf("invariant 2 violated: slot %d < max memory %d", l.SlotBytes, l.MaxMemoryBytes)
	}
	// 3: page alignment.
	for name, v := range map[string]uint64{
		"slot_bytes":            l.SlotBytes,
		"max_memory_bytes":      l.MaxMemoryBytes,
		"pre_slot_guard_bytes":  l.PreSlabGuardBytes,
		"post_slot_guard_bytes": l.PostSlabGuardBytes,
		"total_slot_bytes":      l.TotalSlabBytes,
	} {
		if v%OSPageSize != 0 {
			return fmt.Errorf("invariant 3 violated: %s = %d not page aligned", name, v)
		}
	}
	// 4: stripe count within keys and slots.
	if l.NumStripes < 1 || l.NumStripes > colorguard.MaxKeys+1 || (l.NumSlots > 0 && l.NumStripes > l.NumSlots) {
		return fmt.Errorf("invariant 4 violated: %d stripes for %d slots", l.NumStripes, l.NumSlots)
	}
	// 5: minimum stripes for the guard requirement.
	if l.MaxMemoryBytes > 0 {
		maxNeeded := l.GuardBytes/l.MaxMemoryBytes + 2
		if uint64(l.NumStripes) > maxNeeded {
			return fmt.Errorf("invariant 5 violated: %d stripes exceeds needed %d", l.NumStripes, maxNeeded)
		}
	}
	// 6: striping preserves the guard distance, and the final slot
	// does not rely on MPK (its guard is the post-slab guard).
	if l.NumStripes > 1 {
		need, err := checkedAdd(maxU64(l.ExpectedSlotBytes, l.MaxMemoryBytes), l.GuardBytes)
		if err != nil {
			return fmt.Errorf("invariant 6: %w", err)
		}
		if l.BytesToNextStripeSlot() < need {
			return fmt.Errorf("invariant 6 violated: next same-color slot at %d, need %d",
				l.BytesToNextStripeSlot(), need)
		}
	}
	if got, err := checkedAdd(l.SlotBytes, l.PostSlabGuardBytes); err != nil || got < minSlotClose(l) {
		return fmt.Errorf("invariant 6 violated: final slot underprotected (%d < %d)", got, minSlotClose(l))
	}
	// 7/8: Wasm-page alignment of the sizes the compiler contracts on.
	if l.ExpectedSlotBytes%WasmPageSize != 0 {
		return fmt.Errorf("invariant 7 violated: expected slot bytes %d", l.ExpectedSlotBytes)
	}
	if l.MaxMemoryBytes%WasmPageSize != 0 {
		return fmt.Errorf("invariant 8 violated: max memory %d", l.MaxMemoryBytes)
	}
	// 9: guard alignment (already covered for pre/post in 3; the
	// configured guard itself must be OS-page aligned).
	if l.GuardBytes%OSPageSize != 0 {
		return fmt.Errorf("invariant 9 violated: guard bytes %d", l.GuardBytes)
	}
	return nil
}

// minSlotClose is the minimum protection the final slot needs: its own
// memory plus the guard requirement.
func minSlotClose(l Layout) uint64 {
	return l.MaxMemoryBytes + l.GuardBytes
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
