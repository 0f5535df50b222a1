package cpu

import (
	"errors"
	"sync/atomic"
)

// This file is the fused tier's profile pass. A fused-tier Machine runs
// the optimized engine (runFused) on the singleton stream — the decoded
// program with no groups, the same stream TierFast executes — with
// per-function instruction counting switched on until its per-Run
// instruction budget runs out. The engine attributes its retired-
// instruction count to the current function at frame switches and on
// exit, so counting adds no per-instruction memory write. The budget
// check happens at an instruction boundary with fr.pc pointing at the
// next unexecuted instruction, so the run bails with errProfileBudget,
// merges its counts into the Program, triggers the one-time fused
// build, and resumes mid-call on the fused stream — a single long
// Invoke still reaches the fused tier.

// fuseWarmupInsts is both the per-Run profile budget and the merged
// count at which the fused stream is built. Variables (not constants)
// so tests can shrink the warmup.
var (
	fuseWarmupInsts = int64(100_000)
	fuseHotCount    = uint32(64)
)

// SetFuseWarmup overrides the profile warmup budget and hot threshold
// and returns a function restoring the previous values. It is a testing
// hook: call it before starting any fused-tier machines and restore
// after they stop.
func SetFuseWarmup(insts int64, hot uint32) (restore func()) {
	oldInsts, oldHot := fuseWarmupInsts, fuseHotCount
	fuseWarmupInsts, fuseHotCount = insts, hot
	return func() { fuseWarmupInsts, fuseHotCount = oldInsts, oldHot }
}

// fuseEager, when set, makes fused-tier machines build the fused
// stream before their first instruction, treating every block as hot.
// It exists for differential tests and benchmarks that need full fused
// coverage on short programs; production use is profile-guided.
var fuseEager atomic.Bool

// SetFuseEager toggles eager fusion for fused-tier machines (off by
// default). With it on, the profile pass is skipped and every
// fusable group is formed, which gives deterministic fused-stream
// coverage to short-running differential and fuzz tests.
func SetFuseEager(on bool) { fuseEager.Store(on) }

// errProfileBudget is returned by runFused when a profiling run has
// retired its budget of fuseWarmupInsts instructions. It never escapes
// runTiered: the machine state is a valid instruction boundary, so
// execution continues on the fused stream.
var errProfileBudget = errors.New("cpu: profile budget reached")

// runTiered is the fused tier's engine selector: execute the fused
// stream when it exists, otherwise profile on the singleton stream and
// build the fused stream once enough counts accumulate.
func (m *Machine) runTiered(tele bool) error {
	p := m.Prog
	for {
		if fp := p.fusedP.Load(); fp != nil {
			m.profCounts = nil
			if tele {
				ctrDispatchFused.Inc()
			}
			return m.runFused(fp, nil)
		}
		if fuseEager.Load() {
			p.buildFusedEager()
			continue
		}
		if m.profCounts == nil {
			m.profCounts = make([]uint64, len(p.Funcs))
		}
		if tele {
			ctrDispatchFast.Inc()
		}
		err := m.runFused(p.decoded(), m.profCounts)
		p.mergeProfile(m.profCounts)
		if err != errProfileBudget {
			return err
		}
		// Budget reached mid-run: the merge above crossed the build
		// threshold, so the next loop iteration resumes on the fused
		// stream from the exact instruction boundary the profiling run
		// stopped at.
	}
}

// mergeProfile folds one machine's per-function counts into the
// Program's aggregate, zeroing them, and builds the fused stream once
// the merged total crosses the warmup threshold. Per-machine counts are
// plain increments; only the merge takes the Program lock, so
// concurrent machines profile race-free.
func (p *Program) mergeProfile(counts []uint64) {
	p.fuseMu.Lock()
	defer p.fuseMu.Unlock()
	if p.fusedP.Load() != nil {
		return
	}
	if p.profAgg == nil {
		p.profAgg = make([]uint64, len(counts))
	}
	for fn, c := range counts {
		p.profAgg[fn] += c
		p.profTotal += c
		counts[fn] = 0
	}
	if p.profTotal >= uint64(fuseWarmupInsts) {
		p.buildFusedLocked(false)
	}
}

// buildFusedEager builds the fused stream with every block treated hot.
func (p *Program) buildFusedEager() {
	p.fuseMu.Lock()
	defer p.fuseMu.Unlock()
	if p.fusedP.Load() == nil {
		p.buildFusedLocked(true)
	}
}
