package rt

import (
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/sfi"
)

// TestCompileModuleCached checks hit/miss behaviour, key separation,
// and that a shared compiled module instantiates independently.
func TestCompileModuleCached(t *testing.T) {
	ResetModuleCache()
	defer ResetModuleCache()

	builds := 0
	build := func() *ir.Module {
		builds++
		return genModule(7)
	}
	key := ModuleKey{Name: "fuzz7", Cfg: sfi.DefaultConfig(sfi.ModeSegue)}

	m1, err := CompileModuleCached(key, build)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := CompileModuleCached(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same key returned distinct modules")
	}
	if builds != 1 {
		t.Fatalf("build called %d times, want 1", builds)
	}
	if hits, misses := ModuleCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different configuration is a different key.
	other := ModuleKey{Name: "fuzz7", Cfg: sfi.DefaultConfig(sfi.ModeGuard)}
	m3, err := CompileModuleCached(other, build)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("different config shared a module")
	}

	// Two instances of the shared module must agree with each other and
	// not interfere (host bindings are per-machine).
	i1, err := NewInstance(m1, InstanceOptions{FSGSBASE: true})
	if err != nil {
		t.Fatal(err)
	}
	i2, err := NewInstance(m1, InstanceOptions{FSGSBASE: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := i1.Invoke("run", 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := i2.Invoke("run", 7)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] {
		t.Fatalf("instances of one module disagree: %#x vs %#x", r1[0], r2[0])
	}
}

// TestCompileModuleCachedConcurrent hammers one key from many
// goroutines; the build must run exactly once and all callers must see
// the same module. Run under -race this also checks the entry gating.
func TestCompileModuleCachedConcurrent(t *testing.T) {
	ResetModuleCache()
	defer ResetModuleCache()

	var buildCount sync.Map
	key := ModuleKey{Name: "fuzz11", Cfg: sfi.DefaultConfig(sfi.ModeLFISegue)}
	const workers = 8
	mods := make([]*Module, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mod, err := CompileModuleCached(key, func() *ir.Module {
				buildCount.Store(w, true)
				return genModule(11)
			})
			if err != nil {
				t.Error(err)
				return
			}
			mods[w] = mod
		}(w)
	}
	wg.Wait()
	n := 0
	buildCount.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for w := 1; w < workers; w++ {
		if mods[w] != mods[0] {
			t.Fatal("workers saw different modules")
		}
	}
}

// TestFastSlowDifferentialRT runs generated programs through full
// compile+instantiate under several modes, executing each once per
// tier — the slow-path oracle, the fast tier (fusion off), and the fused
// superinstruction tier (eager, so short programs hit the fused
// stream) — and asserts checksums, Stats, and linear memory are
// bit-identical.
func TestFastSlowDifferentialRT(t *testing.T) {
	cpu.SetFuseEager(true)
	defer cpu.SetFuseEager(false)
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	modes := []sfi.Mode{sfi.ModeNative, sfi.ModeGuard, sfi.ModeSegue, sfi.ModeLFISegue}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*9176011 + 5
		for _, mode := range modes {
			mod, err := CompileModule(genModule(seed), sfi.DefaultConfig(mode))
			if err != nil {
				t.Fatalf("seed %d mode %v: %v", s, mode, err)
			}
			run := func(tier cpu.Tier) (*Instance, []uint64, error) {
				inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
				if err != nil {
					t.Fatalf("seed %d mode %v: %v", s, mode, err)
				}
				inst.Mach.Tier = tier
				res, err := inst.Invoke("run", uint64(s))
				return inst, res, err
			}
			si, sres, serr := run(cpu.TierSlow)
			for _, tier := range []cpu.Tier{cpu.TierFast, cpu.TierFused} {
				fi, fres, ferr := run(tier)
				if (ferr == nil) != (serr == nil) {
					t.Fatalf("seed %d mode %v: error mismatch %v=%v slow=%v", s, mode, tier, ferr, serr)
				}
				if serr != nil {
					continue
				}
				if fres[0] != sres[0] {
					t.Fatalf("seed %d mode %v: checksum %v %#x slow %#x", s, mode, tier, fres[0], sres[0])
				}
				if fi.Mach.Stats != si.Mach.Stats {
					t.Fatalf("seed %d mode %v: %v stats mismatch\n%v %+v\nslow %+v",
						s, mode, tier, tier, fi.Mach.Stats, si.Mach.Stats)
				}
				fbuf := make([]byte, 1<<16)
				sbuf := make([]byte, 1<<16)
				fi.AS.ReadBytes(fi.HeapBase, fbuf)
				si.AS.ReadBytes(si.HeapBase, sbuf)
				for i := range fbuf {
					if fbuf[i] != sbuf[i] {
						t.Fatalf("seed %d mode %v: %v memory[%d] %#x slow %#x",
							s, mode, tier, i, fbuf[i], sbuf[i])
					}
				}
			}
		}
	}
}

// TestFusedBuildOnceAcrossInstances spins up many instances of one
// shared module concurrently, all on the fused tier, and checks the
// superinstruction stream was compiled exactly once for the Program —
// the cross-instance amortization the module cache exists for.
func TestFusedBuildOnceAcrossInstances(t *testing.T) {
	ResetModuleCache()
	defer ResetModuleCache()
	cpu.SetFuseEager(true)
	defer cpu.SetFuseEager(false)

	key := ModuleKey{Name: "fuzz13", Cfg: sfi.DefaultConfig(sfi.ModeSegue)}
	mod, err := CompileModuleCached(key, func() *ir.Module { return genModule(13) })
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
			if err != nil {
				t.Error(err)
				return
			}
			inst.Mach.Tier = cpu.TierFused
			res, err := inst.Invoke("run", 13)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = res[0]
		}(w)
	}
	wg.Wait()
	if n := mod.Prog.FuseBuilds(); n != 1 {
		t.Fatalf("fused stream built %d times, want 1", n)
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatal("workers disagree on checksum")
		}
	}
}

// TestFusedProfileBuildOnceConcurrent exercises the profile-guided
// path under contention: many fused-tier machines run concurrently
// with a tiny warmup budget, their profiles merge into the shared
// Program, and the build must still happen exactly once.
func TestFusedProfileBuildOnceConcurrent(t *testing.T) {
	defer cpu.SetFuseWarmup(500, 1)()

	mod, err := CompileModule(genModule(17), sfi.DefaultConfig(sfi.ModeSegue))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := NewInstance(mod, InstanceOptions{FSGSBASE: true})
			if err != nil {
				t.Error(err)
				return
			}
			inst.Mach.Tier = cpu.TierFused
			for i := 0; i < 4; i++ {
				if _, err := inst.Invoke("run", uint64(17+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := mod.Prog.FuseBuilds(); n > 1 {
		t.Fatalf("fused stream built %d times, want at most 1", n)
	}
}
