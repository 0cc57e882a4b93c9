package uarch_test

import (
	"context"
	"testing"

	"minigraph/internal/asm"
	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/isa"
	"minigraph/internal/program"
	"minigraph/internal/rewrite"
	"minigraph/internal/uarch"
)

const sumSrc = `
        .data
table:  .word 1, 2, 3, 4, 5, 6, 7, 8
out:    .space 8
        .text
main:   li    r9, 200
outer:  li    r1, 8
        lda   r2, table(zero)
        clr   r3
loop:   ldq   r4, 0(r2)
        addq  r3, r4, r3
        lda   r2, 8(r2)
        subl  r1, 1, r1
        bne   r1, loop
        stq   r3, out(zero)
        subl  r9, 1, r9
        bne   r9, outer
        halt
`

func run(t testing.TB, cfg uarch.Config, p *isa.Program, mgt *core.MGT) *uarch.Result {
	t.Helper()
	pipe := uarch.New(cfg, p, mgt)
	res, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineRunsToCompletion(t *testing.T) {
	p := asm.MustAssemble("sum", sumSrc)
	res := run(t, uarch.Baseline(), p, nil)
	ref, err := emu.RunToCompletion(p, nil, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != ref.InstCount {
		t.Errorf("retired %d records, emulator executed %d", res.Retired, ref.InstCount)
	}
	if res.Retired != res.RetiredWork {
		t.Errorf("work %d != retired %d for a plain binary", res.RetiredWork, res.Retired)
	}
	ipc := res.IPC()
	if ipc < 0.3 || ipc > 6.0 {
		t.Errorf("suspicious IPC %.3f (cycles=%d retired=%d)", ipc, res.Cycles, res.Retired)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	p := asm.MustAssemble("sum", sumSrc)
	a := run(t, uarch.Baseline(), p, nil)
	b := run(t, uarch.Baseline(), p, nil)
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Mispredicts != b.Mispredicts {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

// loopOf builds a warm loop repeating body many times, so compulsory cache
// misses do not dominate the measurement.
func loopOf(body string, iters int) string {
	return "main:   li r20, " + itoa(iters) + "\nloop:\n" + body +
		"        subl r20, 1, r20\n        bne r20, loop\n        halt\n"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestDependentChainLatency(t *testing.T) {
	// A pure dependence chain issues one per cycle once caches are warm.
	body := ""
	for i := 0; i < 40; i++ {
		body += "        addq r1, 1, r1\n"
	}
	p := asm.MustAssemble("chain", loopOf(body, 500))
	res := run(t, uarch.Baseline(), p, nil)
	if ipc := res.IPC(); ipc > 1.15 || ipc < 0.85 {
		t.Errorf("dependence-chain IPC %.3f, want ~1.0", ipc)
	}
}

func TestIndependentOpsSuperscalar(t *testing.T) {
	// Independent ops should exceed 2 IPC on the 4-ALU baseline.
	body := ""
	for i := 0; i < 10; i++ {
		body += "        addq r1, 1, r2\n        addq r3, 1, r4\n        addq r5, 1, r6\n        addq r7, 1, r8\n"
	}
	p := asm.MustAssemble("indep", loopOf(body, 500))
	res := run(t, uarch.Baseline(), p, nil)
	if ipc := res.IPC(); ipc < 2.0 {
		t.Errorf("independent-op IPC %.3f, want > 2", ipc)
	}
}

func TestTwoCycleSchedulerSlowsChains(t *testing.T) {
	body := ""
	for i := 0; i < 40; i++ {
		body += "        addq r1, 1, r1\n"
	}
	p := asm.MustAssemble("chain", loopOf(body, 500))
	fast := run(t, uarch.Baseline(), p, nil)
	cfg := uarch.Baseline()
	cfg.SchedCycles = 2
	slow := run(t, cfg, p, nil)
	// With a 2-cycle scheduling loop the chain should take ~2x the cycles.
	ratio := float64(slow.Cycles) / float64(fast.Cycles)
	if ratio < 1.6 {
		t.Errorf("2-cycle scheduler ratio %.2f, want ~2", ratio)
	}
}

func TestBranchyCodePaysMispredicts(t *testing.T) {
	// Data-dependent unpredictable branches (LCG low bit) must produce
	// mispredicts and depress IPC.
	// Note: the branch keys off bit 17 of the LCG state — the low bits of a
	// power-of-two-modulus LCG are short-period and trivially predictable.
	src := `
main:   li   r9, 4000
        li   r1, 12345
loop:   mull r1, 1103515245, r1
        addq r1, 12345, r1
        and  r1, 1073741823, r1
        srl  r1, 17, r2
        and  r2, 1, r2
        beq  r2, skip
        addq r3, 1, r3
skip:   subl r9, 1, r9
        bne  r9, loop
        halt
`
	p := asm.MustAssemble("branchy", src)
	res := run(t, uarch.Baseline(), p, nil)
	if res.Mispredicts < 100 {
		t.Errorf("expected many mispredicts, got %d", res.Mispredicts)
	}
	if res.Branches == 0 {
		t.Error("no branches retired")
	}
}

func TestDCacheMissesHurt(t *testing.T) {
	// Pointer-chase over a region far larger than L1D: misses dominate.
	src := `
        .data
buf:    .space 8
        .text
main:   li   r9, 30000
        li   r1, 0
        li   r10, 2097152
loop:   ldq  r2, buf(r1)
        addq r2, 1, r2
        mull r1, 25173, r1
        addq r1, 13849, r1
        and  r1, 2097144, r1
        subl r9, 1, r9
        bne  r9, loop
        halt
`
	p := asm.MustAssemble("miss", src)
	res := run(t, uarch.Baseline(), p, nil)
	if res.L1DMisses < 1000 {
		t.Errorf("expected many L1D misses, got %d", res.L1DMisses)
	}
	if res.LoadMissReplays == 0 {
		t.Error("expected load-miss replays")
	}
	if ipc := res.IPC(); ipc > 3 {
		t.Errorf("memory-bound IPC %.2f suspiciously high", ipc)
	}
}

// violSrc is a store whose address forms slowly, then an immediate load of
// the same address: the load speculates ahead, violates, and store sets
// learn to synchronise the pair.
const violSrc = `
        .data
slot:   .space 64
ptr:    .word 0
        .text
main:   li   r9, 2000
        lda  r12, slot(zero)
loop:   mull r1, 1, r2
        mull r2, 1, r2
        mull r2, 1, r2
        addq r2, r12, r3
        and  r3, -8, r3
        stq  r9, 0(r3)
        ldq  r5, slot(zero)
        addq r5, r5, r6
        subl r9, 1, r9
        bne  r9, loop
        halt
`

func TestStoreSetViolationAndLearning(t *testing.T) {
	p := asm.MustAssemble("viol", violSrc)
	res := run(t, uarch.Baseline(), p, nil)
	if res.Violations == 0 {
		t.Error("expected at least one memory-ordering violation")
	}
	// Learning: violations should be far rarer than iterations.
	if res.Violations > 500 {
		t.Errorf("store sets did not learn: %d violations in 2000 iterations", res.Violations)
	}
}

func TestStoreForwarding(t *testing.T) {
	src := `
        .data
slot:   .space 8
        .text
main:   li   r9, 1000
loop:   stq  r9, slot(zero)
        ldq  r2, slot(zero)
        addq r2, r2, r3
        subl r9, 1, r9
        bne  r9, loop
        halt
`
	p := asm.MustAssemble("fwd", src)
	res := run(t, uarch.Baseline(), p, nil)
	if res.Forwards < 500 {
		t.Errorf("expected store-to-load forwarding, got %d", res.Forwards)
	}
	if res.Violations > 50 {
		t.Errorf("same-cycle-visible stores should rarely violate: %d", res.Violations)
	}
}

func TestReducedRegistersSlowDown(t *testing.T) {
	p := asm.MustAssemble("sum", sumSrc)
	full := run(t, uarch.Baseline(), p, nil)
	cfg := uarch.Baseline()
	cfg.PhysRegs = 80 // drastic reduction: 16 in-flight registers
	small := run(t, cfg, p, nil)
	if small.Cycles < full.Cycles {
		t.Errorf("fewer registers should not be faster: %d vs %d", small.Cycles, full.Cycles)
	}
	if small.StallRegs == 0 {
		t.Error("expected register-stall cycles with 80 physical registers")
	}
}

func TestNarrowMachineSlower(t *testing.T) {
	p := asm.MustAssemble("sum", sumSrc)
	wide := run(t, uarch.Baseline(), p, nil)
	cfg := uarch.Baseline()
	cfg.FetchWidth, cfg.RenameWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2, 2
	cfg.Name = "2wide"
	narrow := run(t, cfg, p, nil)
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("2-wide (%d cycles) should be slower than 6-wide (%d)", narrow.Cycles, wide.Cycles)
	}
}

// rewriteFor extracts and rewrites with the given policy, returning the
// rewritten program and its MGT.
func rewriteFor(t testing.TB, p *isa.Program, pol core.Policy, params core.ExecParams) (*isa.Program, *core.MGT) {
	t.Helper()
	g := program.BuildCFG(p, nil)
	lv := program.ComputeLiveness(g)
	prof, err := emu.ProfileProgram(p, nil, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sel := core.Extract(g, lv, prof, pol, 512)
	res, err := rewrite.Rewrite(p, sel, false)
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog, core.NewMGT(res.Templates, params)
}

func TestMiniGraphPipelineRetiresHandles(t *testing.T) {
	p := asm.MustAssemble("sum", sumSrc)
	rw, mgt := rewriteFor(t, p, core.DefaultPolicy(), core.DefaultExecParams())
	res := run(t, uarch.MiniGraph(true), rw, mgt)
	if res.RetiredHandles == 0 {
		t.Fatal("no handles retired")
	}
	// Work conservation: handle constituents + singleton retires equal the
	// original dynamic instruction count (each k-graph became one handle of
	// k work plus k-1 nops that never retire), and retired records plus
	// dropped nops equal the rewritten stream length, which nop-fill keeps
	// equal to the original count.
	ref, _ := emu.RunToCompletion(p, nil, 10_000_000)
	if res.RetiredWork != ref.InstCount {
		t.Errorf("work %d != original %d", res.RetiredWork, ref.InstCount)
	}
	if res.Retired+res.FetchedNops != ref.InstCount {
		t.Errorf("retired %d + nops %d != original %d", res.Retired, res.FetchedNops, ref.InstCount)
	}
}

func TestMiniGraphSpeedsUpALUBoundKernel(t *testing.T) {
	// An ALU-idiom-rich kernel (long serial chains of collapsible pairs)
	// should benefit from mini-graph processing on a narrow machine.
	src := `
        .data
out:    .space 8
        .text
main:   li   r9, 3000
        clr  r3
loop:   addl r3, 7, r4
        srl  r4, 3, r4
        xor  r4, r3, r5
        and  r5, 255, r5
        addl r5, 1, r6
        sll  r6, 2, r6
        addq r3, r6, r3
        subl r9, 1, r9
        bne  r9, loop
        stq  r3, out(zero)
        halt
`
	p := asm.MustAssemble("alu", src)
	base := run(t, uarch.Baseline(), p, nil)
	rw, mgt := rewriteFor(t, p, core.DefaultPolicy(), core.DefaultExecParams())
	mg := run(t, uarch.MiniGraph(true), rw, mgt)
	if mg.RetiredHandles == 0 {
		t.Fatal("nothing collapsed")
	}
	sp := uarch.Speedup(base, mg)
	t.Logf("baseline %d cycles (IPC %.2f), minigraph %d cycles (workIPC %.2f), speedup %.3f",
		base.Cycles, base.IPC(), mg.Cycles, mg.WorkIPC(), sp)
	if sp < 0.8 {
		t.Errorf("mini-graphs slowed an ALU kernel down badly: speedup %.3f", sp)
	}
}

func TestMGReplayOnInteriorLoadMiss(t *testing.T) {
	// Interior-load mini-graph over a thrashing buffer: misses must replay
	// whole handles.
	src := `
        .data
buf:    .space 8
        .text
main:   li   r9, 20000
        li   r1, 0
loop:   ldq  r2, buf(r1)
        addq r2, 7, r2
        xor  r2, r9, r3
        mull r1, 25173, r1
        addq r1, 13849, r1
        and  r1, 2097144, r1
        subl r9, 1, r9
        bne  r9, loop
        halt
`
	p := asm.MustAssemble("mgmiss", src)
	pol := core.DefaultPolicy()
	rw, mgt := rewriteFor(t, p, pol, core.DefaultExecParams())
	res := run(t, uarch.MiniGraph(true), rw, mgt)
	if res.RetiredHandles == 0 {
		t.Skip("selection did not produce a load-bearing handle")
	}
	if res.MGReplays == 0 {
		t.Error("expected mini-graph replays from interior load misses")
	}
}

func TestConfigValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-width config")
		}
	}()
	cfg := uarch.Baseline()
	cfg.FetchWidth = 0
	p := asm.MustAssemble("x", "main: halt\n")
	uarch.New(cfg, p, nil)
}

// TestExternalSerializationCost reproduces Figure 3's timing argument at
// micro scale. Two programs with identical dataflow: a slow producer (mull,
// 7 cycles) feeds the *second* instruction of a two-op idiom whose first
// instruction is ready early, and the idiom's result closes the loop
// recurrence. Executed individually, the first op overlaps the slow
// producer; collapsed into a handle, it spuriously waits for all interface
// inputs (external serialization), lengthening the recurrence.
func TestExternalSerializationCost(t *testing.T) {
	src := `
main:   li   r9, 3000
        li   r2, 3
        li   r1, 5
loop:   mull r2, 3, r2       ; slow producer (7 cycles)
        addl r1, 2, r1       ; early op of the idiom (independent of mull)
        xor  r1, r2, r1      ; late op: needs the slow producer
        subl r9, 1, r9
        bne  r9, loop
        halt
`
	p := asm.MustAssemble("extser", src)
	base := run(t, uarch.Baseline(), p, nil)

	pol := core.IntegerPolicy()
	pol.MaxSize = 2
	rw, mgt := rewriteFor(t, p, pol, core.DefaultExecParams())
	mg := run(t, uarch.MiniGraph(false), rw, mgt)
	if mg.RetiredHandles == 0 {
		t.Skip("idiom not selected")
	}
	// The handle executes addl+xor back to back after BOTH inputs arrive;
	// individually the addl overlaps the multiply. The mini-graph run must
	// therefore be measurably slower on this adversarial kernel.
	if mg.Cycles <= base.Cycles {
		t.Errorf("external serialization should cost cycles: %d vs %d", mg.Cycles, base.Cycles)
	}

	// Disallowing externally serial graphs recovers baseline performance.
	polNo := pol
	polNo.AllowExtSerial = false
	rw2, mgt2 := rewriteFor(t, p, polNo, core.DefaultExecParams())
	mg2 := run(t, uarch.MiniGraph(false), rw2, mgt2)
	if mg2.Cycles > base.Cycles*101/100 {
		t.Errorf("NoExtSerial policy should recover baseline: %d vs %d", mg2.Cycles, base.Cycles)
	}
}

// TestHandleOutputLatencyMatters verifies the MGHT LAT plumbing end to end:
// a recurrence through a 3-op idiom whose output is its *first* instruction
// (LAT=1) must run faster than one whose output is its *last* (LAT=3),
// because dependants wake up LAT cycles after handle issue (Figure 3a).
func TestHandleOutputLatencyMatters(t *testing.T) {
	early := `
main:   li   r9, 4000
        li   r1, 1
loop:   addl r1, 2, r1       ; output producer (first)
        cmplt r1, 99, r7     ; interior
        xor  r7, r9, r8      ; interior sink
        subl r9, 1, r9
        bne  r9, loop
        stq  r1, 0(sp)
        stq  r8, 8(sp)
        halt
`
	late := `
main:   li   r9, 4000
        li   r1, 1
loop:   cmplt r1, 99, r7     ; interior
        xor  r7, r9, r8      ; interior
        addl r1, 2, r1       ; output producer (last)... fed by the interior
        subl r9, 1, r9
        bne  r9, loop
        stq  r1, 0(sp)
        stq  r8, 8(sp)
        halt
`
	_ = late
	p := asm.MustAssemble("early", early)
	pol := core.IntegerPolicy()
	rw, mgt := rewriteFor(t, p, pol, core.DefaultExecParams())
	res := run(t, uarch.MiniGraph(false), rw, mgt)
	if res.RetiredHandles == 0 {
		t.Skip("idiom not selected")
	}
	// With LAT=1 for the early-output graph, the r1 recurrence sustains one
	// iteration per ~2 cycles despite the 3-cycle graph occupancy.
	perIter := float64(res.Cycles) / 4000
	if perIter > 3.5 {
		t.Errorf("early-output recurrence too slow: %.2f cycles/iter", perIter)
	}
}
