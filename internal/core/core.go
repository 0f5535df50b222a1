// Package core is the public face of the library: a downstream user
// builds a module with the IR builder, compiles it with Segue and/or
// runs it under ColorGuard, without touching the substrate packages.
//
// The three core types are:
//
//   - Engine — a compilation configuration (Segue on/off, vectorizer,
//     epoch interruption) shared by modules.
//   - CompiledModule — a validated, compiled module.
//   - Sandbox — one running instance with its own linear memory,
//     either standalone or packed into a ColorGuard pool.
//
// A minimal session:
//
//	eng := core.NewEngine(core.Options{Segue: true})
//	mod, err := eng.Compile(m)              // m is an *ir.Module
//	sb, err := eng.Instantiate(mod, nil)
//	res, err := sb.Call("run", 1000)
//
// For high-density serving, create a ColorGuard pool and instantiate
// into it:
//
//	pool, err := eng.NewPool(core.PoolOptions{MaxMemoryBytes: 64 << 20})
//	sb, err := pool.Instantiate(mod, nil)
package core

import (
	"errors"
	"fmt"

	"repro/internal/colorguard"
	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isolation"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/sfi"
)

// Options configures an Engine.
type Options struct {
	// Segue stores the heap base in %gs and uses segment-relative
	// addressing for sandboxed memory operations.
	Segue bool

	// SegueLoadsOnly applies Segue to loads only (WAMR's tuning knob).
	SegueLoadsOnly bool

	// BoundsChecks uses explicit bounds checks instead of guard pages
	// (for environments without large virtual address spaces).
	BoundsChecks bool

	// Vectorize enables the 128-bit store-fusion pass.
	Vectorize bool

	// EpochInterruption inserts preemption checks at loop headers so a
	// host can interrupt and resume sandboxes.
	EpochInterruption bool

	// FSGSBASE selects user-level segment-base writes; disable to model
	// pre-IvyBridge CPUs where transitions fall back to a system call.
	FSGSBASE bool
}

// Engine compiles modules under a fixed configuration.
type Engine struct {
	cfg      sfi.Config
	fsgsbase bool
}

// NewEngine returns an engine for the given options.
func NewEngine(o Options) *Engine {
	mode := sfi.ModeGuard
	switch {
	case o.BoundsChecks && o.Segue:
		mode = sfi.ModeBoundsSegue
	case o.BoundsChecks:
		mode = sfi.ModeBoundsCheck
	case o.Segue:
		mode = sfi.ModeSegue
	}
	cfg := sfi.DefaultConfig(mode)
	cfg.SegueLoadsOnly = o.SegueLoadsOnly
	cfg.Vectorize = o.Vectorize
	cfg.EpochChecks = o.EpochInterruption
	return &Engine{cfg: cfg, fsgsbase: o.FSGSBASE}
}

// CompiledModule is a compiled, instantiable module.
type CompiledModule struct {
	mod *rt.Module
}

// CodeBytes returns the compiled code size.
func (cm *CompiledModule) CodeBytes() int { return cm.mod.Prog.CodeBytes() }

// Compile validates and compiles an IR module.
func (e *Engine) Compile(m *ir.Module) (*CompiledModule, error) {
	mod, err := rt.CompileModule(m, e.cfg)
	if err != nil {
		return nil, err
	}
	return &CompiledModule{mod: mod}, nil
}

// HostFunc implements an imported function.
type HostFunc = rt.HostFunc

// HostCall carries host-call arguments and memory access helpers.
type HostCall = rt.HostCall

// Sandbox is one running instance.
type Sandbox struct {
	inst *rt.Instance
}

// Instantiate creates a standalone sandbox (own simulated address
// space with full-size guard regions).
func (e *Engine) Instantiate(cm *CompiledModule, hosts map[string]HostFunc) (*Sandbox, error) {
	inst, err := rt.NewInstance(cm.mod, rt.InstanceOptions{
		Hosts:    hosts,
		FSGSBASE: e.fsgsbase,
	})
	if err != nil {
		return nil, err
	}
	return &Sandbox{inst: inst}, nil
}

// Call invokes an exported function.
func (sb *Sandbox) Call(name string, args ...uint64) ([]uint64, error) {
	return sb.inst.Invoke(name, args...)
}

// Stats returns the accumulated machine counters.
func (sb *Sandbox) Stats() cpu.Stats { return sb.inst.Mach.Stats }

// SimulatedNanos returns the simulated wall-clock time consumed so far.
func (sb *Sandbox) SimulatedNanos() float64 {
	return sb.inst.Mach.Stats.Nanos(&sb.inst.Mach.Cost)
}

// MemRead copies linear-memory contents (for inspecting results).
func (sb *Sandbox) MemRead(addr uint32, n uint32) ([]byte, error) {
	hc := &rt.HostCall{Inst: sb.inst}
	return hc.MemRead(addr, n)
}

// MemWrite fills linear memory (for staging inputs).
func (sb *Sandbox) MemWrite(addr uint32, data []byte) error {
	hc := &rt.HostCall{Inst: sb.inst}
	return hc.MemWrite(addr, data)
}

// Close releases the sandbox's pool slot back to its backend, if any.
func (sb *Sandbox) Close() error {
	return sb.inst.Close()
}

// Slot returns the sandbox's isolation slot (the zero Slot for
// standalone sandboxes).
func (sb *Sandbox) Slot() isolation.Slot { return sb.inst.Slot() }

// PoolOptions configures a sandbox pool.
type PoolOptions struct {
	// MaxMemoryBytes caps each sandbox's linear memory (must cover the
	// modules instantiated into the pool).
	MaxMemoryBytes uint64

	// GuardBytes is the guard requirement between identically-colored
	// sandboxes; 0 selects 4 GiB-equivalent protection scaled to the
	// slot size.
	GuardBytes uint64

	// Slots is the slot count; 0 fills TotalBytes.
	Slots int

	// TotalBytes caps the pool reservation (required when Slots is 0).
	TotalBytes uint64

	// Keys is the number of MPK keys to stripe with (0 disables
	// ColorGuard and falls back to pure guard regions). Only meaningful
	// for the ColorGuard backend.
	Keys int

	// Backend selects the isolation mechanism protecting the pool's
	// slots; empty selects ColorGuard when Keys > 0, guard pages
	// otherwise (the historical behavior).
	Backend isolation.Kind

	// Processes deals slots across this many OS processes (multi-process
	// backend only); 0 selects 1.
	Processes int

	// PreserveTagsOnMadvise models the proposed tag-preserving
	// madvise(MADV_DONTNEED) (MTE backend only, §7): recycling keeps
	// granule tags, so slot reuse needs no re-tagging.
	PreserveTagsOnMadvise bool
}

// Pool is a pooling allocator: one shared simulated address space
// packing sandboxes, protected by an isolation backend (MPK striping,
// MTE tagging, guard pages, or process separation).
type Pool struct {
	eng *Engine
	b   *isolation.Backend
}

// NewPool reserves a pool.
func (e *Engine) NewPool(o PoolOptions) (*Pool, error) {
	if o.MaxMemoryBytes == 0 {
		return nil, errors.New("core: PoolOptions.MaxMemoryBytes required")
	}
	guard := o.GuardBytes
	if guard == 0 {
		guard = 4 << 30
	}
	kind := o.Backend
	if kind == "" {
		if o.Keys > 0 {
			kind = isolation.ColorGuard
		} else {
			kind = isolation.GuardPage
		}
	}
	b, err := isolation.NewReserved(kind, mem.NewAS(47), isolation.Config{
		Slots:                 o.Slots,
		MaxMemoryBytes:        o.MaxMemoryBytes,
		GuardBytes:            guard,
		TotalBytes:            o.TotalBytes,
		Keys:                  o.Keys,
		Processes:             o.Processes,
		PreserveTagsOnMadvise: o.PreserveTagsOnMadvise,
	})
	if err != nil {
		return nil, err
	}
	return &Pool{eng: e, b: b}, nil
}

// Capacity returns the pool's total slot count.
func (p *Pool) Capacity() int { return p.b.Capacity() }

// Available returns the free slot count.
func (p *Pool) Available() int { return p.b.Available() }

// Stripes returns the number of colors in use.
func (p *Pool) Stripes() int { return p.b.Layout().NumStripes }

// Backend exposes the pool's isolation backend (for cost accounting
// and tests).
func (p *Pool) Backend() *isolation.Backend { return p.b }

// Instantiate creates a sandbox inside the pool: its linear memory is
// a slot colored by the pool's backend, and every call applies the
// backend's transition behavior (e.g. restricting PKRU to the slot's
// color under ColorGuard).
func (p *Pool) Instantiate(cm *CompiledModule, hosts map[string]HostFunc) (*Sandbox, error) {
	need := uint64(cm.mod.IR.MemMin) * ir.PageSize
	maxNeed := uint64(cm.mod.IR.MemMax) * ir.PageSize
	if maxNeed > p.b.Layout().MaxMemoryBytes {
		return nil, fmt.Errorf("core: module needs %d bytes, pool slots hold %d", maxNeed, p.b.Layout().MaxMemoryBytes)
	}
	slot, err := p.b.Allocate(need)
	if err != nil {
		return nil, err
	}
	inst, err := rt.NewInstance(cm.mod, rt.InstanceOptions{
		Hosts:    hosts,
		FSGSBASE: p.eng.fsgsbase,
		Place:    isolation.Place(p.b, slot),
	})
	if err != nil {
		_ = p.b.Recycle(slot)
		return nil, err
	}
	return &Sandbox{inst: inst}, nil
}

// PkruFor exposes the PKRU value used when entering a sandbox with the
// given color (for inspection and tests).
func PkruFor(key uint8) uint32 { return colorguard.PkruFor(key) }
