package pool

import "testing"

const (
	mib = uint64(1) << 20
	gib = uint64(1) << 30
	tib = uint64(1) << 40
)

func TestComputeLayoutNoStriping(t *testing.T) {
	l, err := ComputeLayout(Config{
		NumSlots:       100,
		MaxMemoryBytes: 4 * gib,
		GuardBytes:     4 * gib,
		Keys:           0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStripes != 1 {
		t.Errorf("stripes = %d, want 1", l.NumStripes)
	}
	if l.SlotBytes != 8*gib {
		t.Errorf("slot = %d, want 8 GiB", l.SlotBytes)
	}
	if l.TotalSlabBytes != 100*8*gib+4*gib {
		t.Errorf("total = %d", l.TotalSlabBytes)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestComputeLayoutStriped(t *testing.T) {
	// The Figure 2 example: 1 GiB sandboxes, 7 GiB guard requirement,
	// 8 colors give 8x density.
	l, err := ComputeLayout(Config{
		NumSlots:       64,
		MaxMemoryBytes: 1 * gib,
		GuardBytes:     7 * gib,
		Keys:           8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStripes != 8 {
		t.Errorf("stripes = %d, want 8", l.NumStripes)
	}
	if l.SlotBytes != 1*gib {
		t.Errorf("slot = %d, want 1 GiB", l.SlotBytes)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestComputeLayoutStripeShortfall(t *testing.T) {
	// Only 4 keys for a 7 GiB guard over 1 GiB slots: stripes cover
	// 3 GiB, the remaining 4 GiB must come back as per-slot guard.
	l, err := ComputeLayout(Config{
		NumSlots:       16,
		MaxMemoryBytes: 1 * gib,
		GuardBytes:     7 * gib,
		Keys:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStripes != 4 {
		t.Errorf("stripes = %d, want 4", l.NumStripes)
	}
	if l.SlotBytes <= 1*gib {
		t.Errorf("slot = %d: expected guard padding beyond 1 GiB", l.SlotBytes)
	}
	// Same-color distance must still cover memory + guard.
	if l.BytesToNextStripeSlot() < 1*gib+7*gib {
		t.Errorf("same-color distance %d < 8 GiB", l.BytesToNextStripeSlot())
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestComputeLayoutRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero max memory", Config{NumSlots: 1, GuardBytes: gib}},
		{"unaligned max memory (invariant 8)", Config{NumSlots: 1, MaxMemoryBytes: 12345, GuardBytes: gib}},
		{"unaligned expected (invariant 7)", Config{NumSlots: 1, MaxMemoryBytes: 64 * 1024, ExpectedSlotBytes: 65 * 1000, GuardBytes: gib}},
		{"unaligned guard (invariant 9)", Config{NumSlots: 1, MaxMemoryBytes: 64 * 1024, GuardBytes: 100}},
		{"overflowing geometry", Config{NumSlots: 1 << 40, MaxMemoryBytes: 1 << 40, GuardBytes: 0}},
		{"no budget for auto slots", Config{NumSlots: 0, MaxMemoryBytes: 64 * 1024, GuardBytes: 0}},
		{"budget too small (invariant 10)", Config{NumSlots: 10, MaxMemoryBytes: gib, GuardBytes: gib, TotalBytes: gib}},
	}
	for _, c := range cases {
		if _, err := ComputeLayout(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLegacyLayoutSaturates(t *testing.T) {
	// The §5.2 bug: a geometry whose slot*n multiplication saturates
	// passes through the legacy computation with invariant 1 broken.
	cfg := Config{
		NumSlots:       1 << 40,
		MaxMemoryBytes: 1 << 40,
		GuardBytes:     0,
	}
	l, err := ComputeLayoutLegacy(cfg)
	if err != nil {
		t.Fatalf("legacy rejected (bug would be fixed): %v", err)
	}
	if verr := l.Validate(); verr == nil {
		t.Fatal("legacy layout passed validation; the saturating-add bug should break invariant 1")
	}
	// The fixed computation rejects the same input.
	if _, err := ComputeLayout(cfg); err == nil {
		t.Fatal("fixed computation accepted an overflowing geometry")
	}
}

func TestLegacyMissingPreconditions(t *testing.T) {
	// Missing precondition 8: unaligned max memory flows through.
	cfg := Config{NumSlots: 4, MaxMemoryBytes: 12345, GuardBytes: 0, ExpectedSlotBytes: 0}
	l, err := ComputeLayoutLegacy(cfg)
	if err != nil {
		t.Fatalf("legacy rejected: %v", err)
	}
	if verr := l.Validate(); verr == nil {
		t.Fatal("legacy layout with unaligned max memory should fail validation")
	}
	if _, err := ComputeLayout(cfg); err == nil {
		t.Fatal("fixed computation accepted unaligned max memory")
	}
}

// TestScalingMicrobench reproduces §6.4.2's shape: with 408 MB slots in
// a fixed address budget, ColorGuard packs ≈15x more slots.
func TestScalingMicrobench(t *testing.T) {
	budget := 85 * tib // what a 47-bit process can realistically reserve
	maxMem := uint64(408) * mib
	guard := 6*gib - maxMem // Wasmtime's 4G+2G footprint minus the memory

	base := Config{
		NumSlots:       0,
		MaxMemoryBytes: maxMem,
		GuardBytes:     guard,
		TotalBytes:     budget,
	}
	noCG := base
	noCG.Keys = 0
	withCG := base
	withCG.Keys = 15

	l0, err := ComputeLayout(noCG)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := ComputeLayout(withCG)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(l1.NumSlots) / float64(l0.NumSlots)
	t.Logf("slots without ColorGuard: %d; with: %d; ratio %.2fx", l0.NumSlots, l1.NumSlots, ratio)
	if l0.NumSlots < 13000 || l0.NumSlots > 16000 {
		t.Errorf("baseline slots = %d, want ≈14.5K", l0.NumSlots)
	}
	if ratio < 13 || ratio > 15.5 {
		t.Errorf("density ratio = %.2f, want ≈15x", ratio)
	}
	if err := l1.Validate(); err != nil {
		t.Errorf("striped layout invalid: %v", err)
	}
}
