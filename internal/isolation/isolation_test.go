package isolation

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/pool"
)

const testMemBytes = uint64(64 << 10)

// tagAt returns the MTE tag of the granule holding addr: the owning
// slot's tag while the slot holds it over that byte, 0 otherwise.
func tagAt(b *Backend, addr uint64) uint8 {
	off := addr - b.base - b.layout.PreSlabGuardBytes
	i := int(off / b.layout.SlotBytes)
	if i >= len(b.tags) || !b.tags[i].tagged || off%b.layout.SlotBytes >= b.tags[i].bytes {
		return 0
	}
	return TagForSlot(i)
}

func reserved(t *testing.T, kind Kind, cfg Config) *Backend {
	t.Helper()
	b, err := NewReserved(kind, mem.NewAS(47), cfg)
	if err != nil {
		t.Fatalf("%s: reserve: %v", kind, err)
	}
	return b
}

func smallConfig() Config {
	return Config{Slots: 8, MaxMemoryBytes: testMemBytes, GuardBytes: 1 << 20, Keys: 4}
}

func TestBackendsImplementLifecycle(t *testing.T) {
	for _, kind := range Kinds() {
		b := reserved(t, kind, smallConfig())
		if b.Kind() != kind {
			t.Fatalf("kind = %s, want %s", b.Kind(), kind)
		}
		if b.Capacity() != 8 || b.Available() != 8 {
			t.Fatalf("%s: capacity/available = %d/%d, want 8/8", kind, b.Capacity(), b.Available())
		}
		s, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatalf("%s: allocate: %v", kind, err)
		}
		if s.MaxBytes != testMemBytes {
			t.Fatalf("%s: slot max = %d, want %d", kind, s.MaxBytes, testMemBytes)
		}
		if b.Available() != 7 {
			t.Fatalf("%s: available after allocate = %d, want 7", kind, b.Available())
		}
		// The open region is readable/writable.
		v, ok := b.AS().VMAAt(s.Addr)
		if !ok || v.Prot&(mem.ProtRead|mem.ProtWrite) != (mem.ProtRead|mem.ProtWrite) {
			t.Fatalf("%s: slot not open after allocate (vma %+v ok=%v)", kind, v, ok)
		}
		if err := b.Recycle(s); err != nil {
			t.Fatalf("%s: recycle: %v", kind, err)
		}
		if b.Available() != 8 {
			t.Fatalf("%s: available after recycle = %d, want 8", kind, b.Available())
		}
		if err := b.Release(); err != nil {
			t.Fatalf("%s: release: %v", kind, err)
		}
	}
}

// TestBackendDoubleRecycle: recycling a slot twice is a double free
// for every kind.
func TestBackendDoubleRecycle(t *testing.T) {
	for _, kind := range Kinds() {
		b := reserved(t, kind, smallConfig())
		s, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Recycle(s); err != nil {
			t.Fatal(err)
		}
		if err := b.Recycle(s); !errors.Is(err, ErrDoubleFree) {
			t.Fatalf("%s: second recycle: %v, want ErrDoubleFree", kind, err)
		}
		// The double free must not double the teardown accounting.
		_, teardown := b.LifecycleNs()
		want := LifecycleFor(kind, false).TeardownNs(testMemBytes)
		if teardown != want {
			t.Fatalf("%s: teardown after double recycle = %v, want %v", kind, teardown, want)
		}
	}
}

// TestColorGuardColorsPersist: MPK colors live in PTEs, so a recycled
// and reallocated slot keeps its stripe color without re-striping — the
// §7 advantage over MTE.
func TestColorGuardColorsPersist(t *testing.T) {
	b := reserved(t, ColorGuard, smallConfig())
	s, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pkey == 0 {
		t.Fatal("colorguard slot has no color")
	}
	v, ok := b.AS().VMAAt(s.Addr)
	if !ok || v.Pkey != s.Pkey {
		t.Fatalf("slot VMA pkey = %d, want %d", v.Pkey, s.Pkey)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatal(err)
	}
	// madvise discards contents but not the mapping or its key.
	v, ok = b.AS().VMAAt(s.Addr)
	if !ok || v.Pkey != s.Pkey {
		t.Fatalf("after recycle, VMA pkey = %d, want %d (colors must survive madvise)", v.Pkey, s.Pkey)
	}
	// LIFO reuse hands back the same slot, same color, and charges no
	// coloring cost (ColorNsPerByte is zero under MPK).
	s2, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Index != s.Index || s2.Pkey != s.Pkey {
		t.Fatalf("reused slot = (%d, key %d), want (%d, key %d)", s2.Index, s2.Pkey, s.Index, s.Pkey)
	}
	initNs, _ := b.LifecycleNs()
	want := 2 * LifecycleFor(ColorGuard, false).InitNs(testMemBytes, false)
	if initNs != want {
		t.Fatalf("init accounting = %v, want %v (no recoloring charge)", initNs, want)
	}
}

// TestMTERetagsAfterMadvise: without the tag-preserving madvise,
// recycling discards granule tags, and the next allocation of the slot
// pays the full re-tagging cost.
func TestMTERetagsAfterMadvise(t *testing.T) {
	b := reserved(t, MTE, smallConfig())
	s, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tag == 0 || s.Tag != TagForSlot(s.Index) {
		t.Fatalf("slot tag = %d, want %d", s.Tag, TagForSlot(s.Index))
	}
	if got := tagAt(b, s.Addr); got != s.Tag {
		t.Fatalf("granule tag = %d, want %d", got, s.Tag)
	}
	life := LifecycleFor(MTE, false)
	firstInit := life.InitNs(testMemBytes, true)
	if initNs, _ := b.LifecycleNs(); initNs != firstInit {
		t.Fatalf("first init = %v, want %v (base + tagging)", initNs, firstInit)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatal(err)
	}
	// madvise dropped the tags with the pages.
	if got := tagAt(b, s.Addr); got != 0 {
		t.Fatalf("after recycle, granule tag = %d, want 0 (madvise discards tags)", got)
	}
	if _, teardown := b.LifecycleNs(); teardown != life.TeardownNs(testMemBytes) {
		t.Fatalf("teardown = %v, want %v (includes tag-clearing term)", teardown, life.TeardownNs(testMemBytes))
	}
	// Reuse re-tags and pays for it again.
	s2, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Index != s.Index {
		t.Fatalf("reused slot = %d, want %d (LIFO)", s2.Index, s.Index)
	}
	if got := tagAt(b, s2.Addr); got != s2.Tag {
		t.Fatalf("after reuse, granule tag = %d, want %d (re-tagged)", got, s2.Tag)
	}
	if initNs, _ := b.LifecycleNs(); initNs != 2*firstInit {
		t.Fatalf("init after reuse = %v, want %v (full re-tag charged)", initNs, 2*firstInit)
	}
}

// TestMTEPreservingMadviseSkipsRetag: with the proposed fix, tags
// survive recycling, so reuse is as cheap as under MPK.
func TestMTEPreservingMadviseSkipsRetag(t *testing.T) {
	cfg := smallConfig()
	cfg.PreserveTagsOnMadvise = true
	b := reserved(t, MTE, cfg)
	life := b.LifecycleCost()
	if life.RecolorOnReuse || life.DecolorNsPerByte != 0 {
		t.Fatalf("preserving lifecycle = %+v, want no decolor/recolor terms", life)
	}
	s, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatal(err)
	}
	if got := tagAt(b, s.Addr); got != s.Tag {
		t.Fatalf("after preserving recycle, granule tag = %d, want %d", got, s.Tag)
	}
	s2, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	initNs, teardownNs := b.LifecycleNs()
	wantInit := life.InitNs(testMemBytes, true) + life.InitNs(testMemBytes, false)
	if initNs != wantInit {
		t.Fatalf("init = %v, want %v (reuse skips tagging)", initNs, wantInit)
	}
	if teardownNs != life.TeardownNs(testMemBytes) {
		t.Fatalf("teardown = %v, want base-only %v", teardownNs, life.TeardownNs(testMemBytes))
	}
	if got := tagAt(b, s2.Addr); got != s2.Tag {
		t.Fatalf("reused slot tag = %d, want %d", got, s2.Tag)
	}
}

// TestGuardPageSlotGeometry: after a recycle, the guard
// space around a guard-page slot is still PROT_NONE, and the next slot
// over is unreachable.
func TestGuardPageSlotGeometry(t *testing.T) {
	b := reserved(t, GuardPage, smallConfig())
	s0, err := b.Allocate(testMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The region immediately after the slot's maximum memory is guard
	// space: PROT_NONE all the way to the next slot.
	guardAddr := s0.Addr + s0.MaxBytes
	v, ok := b.AS().VMAAt(guardAddr)
	if !ok || v.Prot != mem.ProtNone {
		t.Fatalf("guard VMA at %#x = %+v ok=%v, want PROT_NONE", guardAddr, v, ok)
	}
	if err := b.Recycle(s0); err != nil {
		t.Fatal(err)
	}
	// Recycling must not open anything: the slot pages were discarded,
	// the guard is still PROT_NONE.
	v, ok = b.AS().VMAAt(guardAddr)
	if !ok || v.Prot != mem.ProtNone {
		t.Fatalf("after recycle, guard VMA = %+v ok=%v, want PROT_NONE", v, ok)
	}
	if err := checkIsolation(b.Layout()); err != nil {
		t.Fatalf("isolation check: %v", err)
	}
}

// TestMultiProcDealsSlots: slots are dealt round-robin across the
// configured process count, and the cost model charges switches.
func TestMultiProcDealsSlots(t *testing.T) {
	cfg := smallConfig()
	cfg.Processes = 3
	b := reserved(t, MultiProc, cfg)
	if got := b.processes; got != 3 {
		t.Fatalf("processes = %d, want 3", got)
	}
	for i := 0; i < 6; i++ {
		s, err := b.Allocate(testMemBytes)
		if err != nil {
			t.Fatal(err)
		}
		if s.Proc != s.Index%3 {
			t.Fatalf("slot %d proc = %d, want %d", s.Index, s.Proc, s.Index%3)
		}
	}
	trans := b.TransitionCost()
	if trans.SwitchNs != CtxSwitchNs || trans.RefillNs != CacheRefillNs || !trans.FlushTLB {
		t.Fatalf("multiproc transition = %+v, want context-switch costs and TLB flush", trans)
	}
}

// TestTransitionCostModel pins the §6.4.1/§6.4.3 numbers the golden
// tables depend on.
func TestTransitionCostModel(t *testing.T) {
	if got := TransitionForScheme(SchemeDefault, GuardPage).RoundTripNs(); got != 2*30.34 {
		t.Fatalf("guardpage round trip = %v, want %v", got, 2*30.34)
	}
	if got := TransitionForScheme(SchemeDefault, ColorGuard).RoundTripNs(); got != 2*51.52 {
		t.Fatalf("colorguard round trip = %v, want %v", got, 2*51.52)
	}
	mp := TransitionForScheme(SchemeDefault, MultiProc)
	if mp.RoundTripNs() != 2*30.34 || mp.SwitchNs != 3500 || mp.RefillNs != 3200 {
		t.Fatalf("multiproc costs = %+v", mp)
	}
}

// TestLifecycleCostModel pins the §7 per-instance numbers for a 64 KiB
// memory: 79/29 µs plain, 2182/377 µs under MTE, and 2182/29 with the
// preserving madvise.
func TestLifecycleCostModel(t *testing.T) {
	cases := []struct {
		kind              Kind
		preserve, recolor bool
		initUs, downUs    float64
	}{
		{GuardPage, false, false, 79, 29},
		{MTE, false, true, 2182, 377},
		{MTE, true, true, 2182, 29},
	}
	for _, c := range cases {
		l := LifecycleFor(c.kind, c.preserve)
		init := l.InitNs(testMemBytes, c.recolor) / 1e3
		down := l.TeardownNs(testMemBytes) / 1e3
		if math.Abs(init-c.initUs) > 1e-9 || math.Abs(down-c.downUs) > 1e-9 {
			t.Fatalf("%s preserve=%v: %v/%v µs, want %v/%v", c.kind, c.preserve, init, down, c.initUs, c.downUs)
		}
	}
	if got := LifecycleFor(MTE, false).ColorNsPerByte; got != TagNsPerByte {
		t.Fatalf("ColorNsPerByte = %v, want %v", got, TagNsPerByte)
	}
}

// TestPlanLayoutMatchesPool: the density math is pool.ComputeLayout's,
// with striping only under ColorGuard.
func TestPlanLayoutMatchesPool(t *testing.T) {
	budget := uint64(85) << 40
	maxMem := uint64(408) << 20
	guard := uint64(6)<<30 - maxMem
	cfg := Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget, Keys: 15}
	for _, kind := range Kinds() {
		l, err := PlanLayout(kind, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		wantKeys := 0
		if kind == ColorGuard {
			wantKeys = 15
		}
		want, err := pool.ComputeLayout(pool.Config{MaxMemoryBytes: maxMem, GuardBytes: guard, TotalBytes: budget, Keys: wantKeys})
		if err != nil {
			t.Fatal(err)
		}
		if l != want {
			t.Fatalf("%s: layout %+v != pool layout %+v", kind, l, want)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := NewReserved(Kind("cheri"), mem.NewAS(47), smallConfig()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestMTEStripingWithTags: neighboring MTE slots carry different tags,
// cycling through the 15 non-zero tags, so a pointer colored for one
// slot cannot touch the next; the tag covers exactly the opened bytes.
func TestMTEStripingWithTags(t *testing.T) {
	cfg := smallConfig()
	cfg.Slots = 16
	b := reserved(t, MTE, cfg)
	var prev Slot
	for i := 0; i < 16; i++ {
		s, err := b.Allocate(4096)
		if err != nil {
			t.Fatal(err)
		}
		if s.Tag == 0 || (i > 0 && s.Tag == prev.Tag) {
			t.Fatalf("slot %d tag = %d, neighbor %d", s.Index, s.Tag, prev.Tag)
		}
		if tagAt(b, s.Addr+4095) != s.Tag || tagAt(b, s.Addr+4096) != 0 {
			t.Fatalf("slot %d: tagged extent wrong", s.Index)
		}
		prev = s
	}
	if TagForSlot(0) != TagForSlot(15) {
		t.Fatalf("tags do not cycle over 15: %d vs %d", TagForSlot(0), TagForSlot(15))
	}
	if err := b.Grow(prev, 8192); err != nil {
		t.Fatal(err)
	}
	if tagAt(b, prev.Addr+8191) != prev.Tag {
		t.Fatal("grow did not extend the slot's tag")
	}
}

// TestCheckIsolationRejectsUnsafeStripe: two same-colored slots closer
// than the guard requirement, or a short post-slab guard, fail the
// concrete layout check NewReserved runs.
func TestCheckIsolationRejectsUnsafeStripe(t *testing.T) {
	good, err := PlanLayout(ColorGuard, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIsolation(good); err != nil {
		t.Fatalf("planned layout rejected: %v", err)
	}
	close := good
	close.NumStripes = 2
	if err := checkIsolation(close); err == nil {
		t.Fatal("same-color slots inside the guard accepted")
	}
	short := good
	short.PostSlabGuardBytes = short.GuardBytes - mem.PageSize
	if err := checkIsolation(short); err == nil {
		t.Fatal("short post-slab guard accepted")
	}
}

const mib = uint64(1) << 20

func TestPoolAllocateFree(t *testing.T) {
	b := reserved(t, ColorGuard, Config{Slots: 8, MaxMemoryBytes: 16 * mib, GuardBytes: 64 * mib, Keys: 15})
	as := b.AS()
	s1, err := b.Allocate(1 * mib)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Allocate(1 * mib)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Index == s2.Index {
		t.Fatal("duplicate slot")
	}
	if s1.Pkey == 0 || s2.Pkey == 0 {
		t.Fatal("striped pool should color slots")
	}
	// The slot is usable and colored.
	as.Store(s1.Addr+100, 8, 42)
	v, ok := as.VMAAt(s1.Addr)
	if !ok || v.Pkey != s1.Pkey {
		t.Fatalf("slot VMA = %+v, want pkey %d", v, s1.Pkey)
	}
	// Recycling zeroes contents but keeps the color.
	if err := b.Recycle(s1); err != nil {
		t.Fatal(err)
	}
	s3, err := b.Allocate(1 * mib)
	for s3.Index != s1.Index && err == nil {
		// Drain until we get the recycled slot back.
		s3, err = b.Allocate(1 * mib)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := as.Load(s3.Addr+100, 8); got != 0 {
		t.Fatalf("recycled slot not zeroed: %d", got)
	}
	if v, _ := as.VMAAt(s3.Addr); v.Pkey != s1.Pkey {
		t.Fatalf("recycled slot lost its color: %d vs %d", v.Pkey, s1.Pkey)
	}
}

// TestPoolDoubleFree: recycling a slot twice must fail instead of
// pushing the index onto the free list again — a double-pushed slot
// would be handed to two instances at once, breaking the striping
// safety argument.
func TestPoolDoubleFree(t *testing.T) {
	b, err := NewReserved(GuardPage, mem.NewAS(40), Config{Slots: 2, MaxMemoryBytes: mib, GuardBytes: mib})
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Allocate(mib)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recycle(s); err != nil {
		t.Fatalf("first recycle: %v", err)
	}
	if err := b.Recycle(s); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second recycle: %v, want ErrDoubleFree", err)
	}
	if b.Available() != 2 {
		t.Fatalf("available after double free = %d, want 2 (free list must not grow)", b.Available())
	}
	// A never-allocated slot and an out-of-range index are rejected too.
	if err := b.Recycle(Slot{Index: 1}); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("recycle of unallocated slot: %v, want ErrDoubleFree", err)
	}
	if err := b.Recycle(Slot{Index: 99}); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("recycle of bogus index: %v, want ErrDoubleFree", err)
	}
	// Both slots remain individually allocatable.
	if _, err := b.Allocate(mib); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Allocate(mib); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Allocate(mib); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third allocate: %v, want ErrExhausted", err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	b, err := NewReserved(GuardPage, mem.NewAS(40), Config{Slots: 3, MaxMemoryBytes: mib, GuardBytes: mib})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Allocate(64 * 1024); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Allocate(64 * 1024); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want exhaustion", err)
	}
}

// TestVMACountPressure: striping multiplies VMAs, which is why the
// paper notes vm.max_map_count must be raised (§5.1).
func TestVMACountPressure(t *testing.T) {
	as := mem.NewAS(47)
	as.MaxMapCount = 40
	b, err := NewReserved(ColorGuard, as, Config{Slots: 64, MaxMemoryBytes: mib, GuardBytes: 4 * mib, Keys: 15})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	allocated := 0
	for i := 0; i < 64; i++ {
		if _, err := b.Allocate(mib); err != nil {
			lastErr = err
			break
		}
		allocated++
	}
	if lastErr == nil {
		t.Fatal("expected to hit the map-count limit")
	}
	if !errors.Is(lastErr, mem.ErrMapCount) {
		t.Fatalf("err = %v, want map-count", lastErr)
	}
	if b.Available() != 64-allocated {
		t.Fatalf("available = %d after a failed allocate, want %d", b.Available(), 64-allocated)
	}
	t.Logf("allocated %d slots before hitting vm.max_map_count=40", allocated)
}
