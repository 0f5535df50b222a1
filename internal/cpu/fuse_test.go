package cpu

import (
	"errors"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/x86"
)

// fuseLoop is the sum-0..n-1 loop from TestLoop: a two-instruction
// prologue, a compare+branch pair at the loop head (a branch target),
// and a three-instruction body ending in the back-edge jump.
func fuseLoop() *Func {
	return &Func{Name: "sum", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RAX)}, // 0
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RCX)}, // 1
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)}, // 2
		{Op: x86.JCC, Cond: x86.CondGE, Dst: x86.Label(7)},                  // 3
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.R(x86.RCX)}, // 4
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(1)},     // 5
		{Op: x86.JMP, Dst: x86.Label(2)},                                    // 6
		{Op: x86.RET},                                                       // 7
	}}
}

// TestFuseFormerShapes pins the former's group layout on the loop:
// greedy non-overlapping groups that never span a leader, keep a
// branch only in final position, and leave interior entries as intact
// singletons.
func TestFuseFormerShapes(t *testing.T) {
	f := fuseLoop()
	f.Encode()
	p := &Program{Funcs: []*Func{f}}
	fp := fuseProgram(p.decoded().funcs, []bool{true})

	insts := fp.funcs[0].insts
	type g struct{ pc, n int }
	var got []g
	for pc := range insts {
		if insts[pc].op == opGroup {
			got = append(got, g{pc, len(insts[pc].steps)})
		}
	}
	// {0,1} stops at the loop head (pc 2 is a branch target); {2,3}
	// ends with the conditional branch; {4,5,6} ends with the jump;
	// RET at 7 is not fusable.
	want := []g{{0, 2}, {2, 2}, {4, 3}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
		}
	}
	if fp.blocks != len(want) {
		t.Fatalf("blocks = %d, want %d", fp.blocks, len(want))
	}

	// Branches are final constituents only.
	steps := insts[2].steps
	if steps[len(steps)-1].kind != fsJcc {
		t.Fatalf("group at 2 does not end in fsJcc: %v", steps)
	}
	steps = insts[4].steps
	if steps[len(steps)-1].kind != fsJmp {
		t.Fatalf("group at 4 does not end in fsJmp: %v", steps)
	}

	// Interior entries stay valid singletons: branching into the middle
	// of a group must execute the original instruction.
	dec := p.decoded().funcs[0].insts
	for _, pc := range []int{1, 3, 5, 6} {
		if insts[pc].op != dec[pc].op {
			t.Fatalf("interior pc %d op rewritten: %v != %v", pc, insts[pc].op, dec[pc].op)
		}
		if insts[pc].steps != nil {
			t.Fatalf("interior pc %d carries steps", pc)
		}
	}

	// gxBytes counts the constituents' encoded bytes beyond the head.
	wantX := uint32(dec[5].ilen) + uint32(dec[6].ilen)
	if insts[4].gxBytes != wantX {
		t.Fatalf("gxBytes = %d, want %d", insts[4].gxBytes, wantX)
	}
}

// TestFuseProfileTriggered checks the profile-guided path end to end:
// a fused-tier machine profiles on the singleton stream, crosses the
// warmup threshold mid-call, builds the fused stream exactly once, and
// finishes with the bit-identical result.
func TestFuseProfileTriggered(t *testing.T) {
	restore := SetFuseWarmup(500, 4)
	defer restore()

	cold := &Func{Name: "cold", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(9)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, fuseLoop(), cold)
	m.Tier = TierFused

	if err := m.Call(0, 1000); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 499500 {
		t.Fatalf("sum(1000) = %d", m.Result())
	}
	if got := m.Prog.FuseBuilds(); got != 1 {
		t.Fatalf("FuseBuilds = %d, want 1 (warmup crossed mid-call)", got)
	}
	fp := m.Prog.fusedP.Load()
	if fp == nil {
		t.Fatal("no fused stream after warmup")
	}
	// The hot loop function fused; the never-executed function did not.
	hotGroups, coldGroups := 0, 0
	for pc := range fp.funcs[0].insts {
		if fp.funcs[0].insts[pc].op == opGroup {
			hotGroups++
		}
	}
	for pc := range fp.funcs[1].insts {
		if fp.funcs[1].insts[pc].op == opGroup {
			coldGroups++
		}
	}
	if hotGroups == 0 {
		t.Fatal("hot function formed no groups")
	}
	if coldGroups != 0 {
		t.Fatalf("cold function formed %d groups", coldGroups)
	}

	// Later calls run on the existing stream; no rebuild.
	if err := m.Call(0, 10); err != nil {
		t.Fatal(err)
	}
	if m.Result() != 45 {
		t.Fatalf("sum(10) = %d", m.Result())
	}
	if got := m.Prog.FuseBuilds(); got != 1 {
		t.Fatalf("FuseBuilds = %d after second call, want 1", got)
	}
}

// TestProfileCountsPerFunction checks the profile pass's attribution:
// a caller and callee that cross frames on every iteration each get
// exactly the instructions they retired, and the counts sum to
// Stats.Insts.
func TestProfileCountsPerFunction(t *testing.T) {
	restore := SetFuseWarmup(1<<40, 1) // never bail, never build
	defer restore()

	caller := &Func{Name: "caller", Insts: []x86.Inst{
		{Op: x86.XOR, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RCX)}, // 0
		{Op: x86.CMP, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)}, // 1
		{Op: x86.JCC, Cond: x86.CondGE, Dst: x86.Label(6)},                  // 2
		{Op: x86.CALLFN, Dst: x86.Imm(1)},                                   // 3
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(1)},     // 4
		{Op: x86.JMP, Dst: x86.Label(1)},                                    // 5
		{Op: x86.RET},                                                       // 6
	}}
	callee := &Func{Name: "callee", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RAX), Src: x86.Imm(9)},
		{Op: x86.RET},
	}}
	m, _ := testEnv(t, caller, callee)
	m.Tier = TierFused
	const n = 10
	if err := m.Call(0, n); err != nil {
		t.Fatal(err)
	}
	if m.Prog.FuseBuilds() != 0 {
		t.Fatal("fused stream built below the warmup threshold")
	}
	want := []uint64{5*n + 4, 2 * n}
	got := m.Prog.profAgg
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("per-function counts = %v, want %v", got, want)
	}
	if got[0]+got[1] != m.Stats.Insts {
		t.Fatalf("counts sum to %d, Stats.Insts = %d", got[0]+got[1], m.Stats.Insts)
	}
}

// TestFuseTelemetry checks the tier-2 counters: cpu.fuse.blocks and
// cpu.fuse.compile_ns record the build, cpu.dispatch.fused records the
// dispatch, and the cpu.tier gauge reflects the machine's tier.
func TestFuseTelemetry(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	SetFuseEager(true)
	defer SetFuseEager(false)

	blocks := telemetry.Default.Counter("cpu.fuse.blocks").Load()
	disp := telemetry.Default.Counter("cpu.dispatch.fused").Load()

	m, _ := testEnv(t, fuseLoop())
	m.Tier = TierFused
	if err := m.Call(0, 50); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.Default.Counter("cpu.fuse.blocks").Load(); got <= blocks {
		t.Fatalf("cpu.fuse.blocks did not advance: %d -> %d", blocks, got)
	}
	if got := telemetry.Default.Counter("cpu.dispatch.fused").Load(); got <= disp {
		t.Fatalf("cpu.dispatch.fused did not advance: %d -> %d", disp, got)
	}
	if got := telemetry.Default.Gauge("cpu.tier").Load(); got != int64(TierFused) {
		t.Fatalf("cpu.tier gauge = %d, want %d", got, TierFused)
	}
}

// TestFusedTrapAttribution faults on the final constituent of a group
// and checks the trap carries the constituent's original function and
// instruction indices, identically to the slow-path oracle.
func TestFusedTrapAttribution(t *testing.T) {
	SetFuseEager(true)
	defer SetFuseEager(false)
	f := &Func{Name: "fault", Insts: []x86.Inst{
		{Op: x86.MOV, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.R(x86.RDI)},                // 0
		{Op: x86.ADD, W: x86.W64, Dst: x86.R(x86.RCX), Src: x86.Imm(8)},                    // 1
		{Op: x86.MOV, W: x86.W64, Dst: x86.M(x86.Mem{Base: x86.RCX}), Src: x86.R(x86.RSI)}, // 2
		{Op: x86.RET}, // 3
	}}
	run := func(tier Tier) error {
		m, heap := testEnv(t, f)
		m.Tier = tier
		return m.Call(0, heap+1<<20, 7) // heap+1MiB+8 lands in the guard
	}
	errF := run(TierFused)
	var trap *Trap
	if !errors.As(errF, &trap) {
		t.Fatalf("fused: got %v, want a trap", errF)
	}
	if trap.Fn != 0 || trap.PC != 2 {
		t.Fatalf("trap at fn %d pc %d, want fn 0 pc 2", trap.Fn, trap.PC)
	}
	errS := run(TierSlow)
	if errS == nil || errS.Error() != errF.Error() {
		t.Fatalf("oracle disagrees: fused %v, slow %v", errF, errS)
	}
}
