// Package progen generates seeded, self-terminating random programs over
// the repository's full ISA, and runs them through the differential
// correctness oracle: the functional emulator and the timing pipeline must
// retire the identical architectural state for every generated program,
// under every machine configuration, extraction policy and record-delivery
// mode. The paper's transparency claim — mini-graph execution never
// changes retired state — becomes a checkable property of arbitrary
// programs instead of eleven fixed benchmarks.
//
// Programs terminate by construction: every backward branch is a counted
// loop with a dedicated counter register the random body cannot touch,
// calls form a bounded acyclic chain (main → mid function → leaf), and
// indirect jumps only target the immediately following label. Loads and
// stores are masked into a scratch region, so generated programs never
// fault. The generator emits assembly text through the same parser the
// hand-written benchmark kernels use — a generated program is a first-class
// workload, registered in the workload registry and simulated through the
// full memoizing engine (capture, replay, spilled replay, store
// round-trips).
package progen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"minigraph/internal/asm"
	"minigraph/internal/isa"
	"minigraph/internal/workload"
)

// Suite is the workload-registry suite name for generated programs. It is
// not one of the paper's four suites, so All() orders generated programs
// after the real kernels and the experiment enumerations never see them.
const Suite = "progen"

// scratchSize is the load/store scratch region in bytes. Address
// computations mask into it, so any register value yields a legal access.
const scratchSize = 4096

// Register roles. The random body draws destinations only from the pool,
// so the structural registers (counters, RA, bases) keep their meaning.
const (
	poolInts   = 20    // r0..r19 general integer pool
	poolFloats = 12    // f0..f11 general float pool
	regTarget  = "r23" // indirect-call/jump target temp
	regInner   = "r25" // inner loop counter
	regRA      = "r26" // return address
	regOuter   = "r27" // outer loop counter
	regAddr    = "r28" // load/store address temp
	regBase    = "r29" // scratch region base
	regSP      = "r30" // stack pointer
)

// Name returns the workload-registry name for seed.
func Name(seed int64) string { return fmt.Sprintf("progen/%016x", uint64(seed)) }

// Source generates the assembly text for seed. Equal seeds produce equal
// text — the seed is the complete reproduction recipe for a divergence.
func Source(seed int64) string {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	return g.program()
}

// Generate builds the program for seed.
func Generate(seed int64) (*isa.Program, error) {
	return asm.Assemble(Name(seed), Source(seed))
}

// RegisterSeed generates seed's program and registers it as a workload so
// the simulation engine can resolve it like any benchmark. Registering the
// same seed again is a no-op (the registry entry is reused — same seed,
// same program). It returns the registry name.
func RegisterSeed(seed int64) (string, error) {
	name := Name(seed)
	if _, ok := workload.ByName(name); ok {
		return name, nil
	}
	prog, err := Generate(seed)
	if err != nil {
		return "", fmt.Errorf("progen: seed %#x: %w", seed, err)
	}
	err = workload.Register(&workload.Benchmark{
		Name:  name,
		Suite: Suite,
		// Generated programs have no train/test split: the program *is*
		// the input. Both inputs build the identical binary.
		Build: func(workload.Input) *isa.Program { return prog },
	})
	if err != nil {
		// A concurrent RegisterSeed won the race; the entry is the same
		// program (generation is deterministic), so losing is success.
		if _, ok := workload.ByName(name); ok {
			return name, nil
		}
		return "", err
	}
	return name, nil
}

// ---- generator ----

type gen struct {
	rng    *rand.Rand
	b      strings.Builder
	labels int
	funcs  []string // callable function labels; funcs[len-1] is the mid function
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) label() string {
	g.labels++
	return fmt.Sprintf("L%d", g.labels)
}

func (g *gen) intReg() string   { return fmt.Sprintf("r%d", g.rng.Intn(poolInts)) }
func (g *gen) floatReg() string { return fmt.Sprintf("f%d", g.rng.Intn(poolFloats)) }

func (g *gen) program() string {
	g.b.Reset()

	// Data: the scratch region first (so its base is the section base),
	// then constant pools for register initialisation.
	nConsts := 8
	g.emit(".data")
	g.emit("scratch: .space %d", scratchSize)
	ints := make([]string, nConsts)
	floats := make([]string, nConsts)
	for i := range ints {
		ints[i] = fmt.Sprintf("%d", int64(g.rng.Uint64()))
		// Bounded doubles keep FP arithmetic in normal range; the digest
		// would accept any bit pattern, but varied magnitudes exercise
		// more of the FP evaluation paths than immediate NaN saturation.
		f := (g.rng.Float64() - 0.5) * 1e6
		floats[i] = fmt.Sprintf("%d", int64(math.Float64bits(f)))
	}
	g.emit("iconsts: .word %s", strings.Join(ints, ", "))
	g.emit("fconsts: .word %s", strings.Join(floats, ", "))

	g.emit(".text")

	// Functions are named before main's body is generated so calls can
	// reference them; their bodies are emitted after main.
	nFuncs := 2 + g.rng.Intn(2) // 2..3: leaves plus one mid
	for i := 0; i < nFuncs; i++ {
		g.funcs = append(g.funcs, fmt.Sprintf("fn%d", i))
	}

	g.emit("main:")
	g.emit("  lda %s, scratch(zero)", regBase)
	for i := 0; i < poolInts; i++ {
		switch g.rng.Intn(3) {
		case 0:
			g.emit("  li r%d, %d", i, int64(g.rng.Uint64()))
		case 1:
			g.emit("  li r%d, %d", i, g.rng.Intn(1<<16)-(1<<15))
		default:
			g.emit("  ldq r%d, iconsts+%d(zero)", i, 8*g.rng.Intn(nConsts))
		}
	}
	for i := 0; i < poolFloats; i++ {
		g.emit("  ldt f%d, fconsts+%d(zero)", i, 8*g.rng.Intn(nConsts))
	}

	nItems := 12 + g.rng.Intn(24)
	for i := 0; i < nItems; i++ {
		g.item(0)
	}
	g.emit("  halt")

	// Function bodies: straight-line simple items (plus diamonds). No
	// loops inside functions keeps the call chain's cost bounded and the
	// counter registers exclusively main's.
	for i, fn := range g.funcs {
		g.emit("%s:", fn)
		mid := i == len(g.funcs)-1 && len(g.funcs) > 1
		if mid {
			g.emit("  subq %s, 16, %s", regSP, regSP)
			g.emit("  stq %s, 8(%s)", regRA, regSP)
		}
		n := 3 + g.rng.Intn(6)
		for j := 0; j < n; j++ {
			g.simpleItem()
		}
		if mid {
			g.emit("  bsr %s, %s", regRA, g.funcs[g.rng.Intn(len(g.funcs)-1)])
			for j := 0; j < 1+g.rng.Intn(3); j++ {
				g.simpleItem()
			}
			g.emit("  ldq %s, 8(%s)", regRA, regSP)
			// Scrub the spill slot: the saved RA is an instruction index,
			// which compressed rewriting legitimately renumbers — a stale
			// copy in dead stack memory would fail the final-memory
			// transparency check for a difference that isn't one.
			g.emit("  stq zero, 8(%s)", regSP)
			g.emit("  addq %s, 16, %s", regSP, regSP)
		}
		g.emit("  ret (%s)", regRA)
	}
	return g.b.String()
}

// item emits one top-level construct. loopDepth bounds loop nesting (two
// counter registers exist) and gates call emission.
func (g *gen) item(loopDepth int) {
	switch p := g.rng.Intn(100); {
	case p < 40:
		g.aluOp()
	case p < 50:
		g.fpOp()
	case p < 60:
		g.loadOp()
	case p < 70:
		g.storeOp()
	case p < 80:
		g.diamond()
	case p < 90 && loopDepth < 2:
		g.loop(loopDepth)
	case p < 97:
		g.call()
	default:
		g.indirectJump()
	}
}

// simpleItem emits a construct with no control flow out of line — legal
// anywhere, including function bodies and diamond arms.
func (g *gen) simpleItem() {
	switch p := g.rng.Intn(100); {
	case p < 50:
		g.aluOp()
	case p < 65:
		g.fpOp()
	case p < 80:
		g.loadOp()
	default:
		g.storeOp()
	}
}

var intOps = []string{
	"addl", "addq", "subl", "subq", "mull", "mulq",
	"s4addl", "s8addl", "s4addq", "s8addq", "s4subl", "s8subl",
	"and", "bis", "xor", "bic", "ornot", "eqv",
	"sll", "srl", "sra",
	"cmpeq", "cmplt", "cmple", "cmpult", "cmpule",
	"zapnot", "mskbl", "insbl", "extbl", "extwl",
}

// intOps1 are effectively unary (Rb ignored or immediate-shaped).
var intOps1 = []string{"sextb", "sextw", "cttz", "ctlz", "ctpop"}

func (g *gen) aluOp() {
	if g.rng.Intn(8) == 0 {
		// Unary-shaped ops evaluate Rb; mirror the kernels' ra=rb idiom.
		op := intOps1[g.rng.Intn(len(intOps1))]
		r := g.intReg()
		g.emit("  %s %s, %s, %s", op, r, r, g.intReg())
		return
	}
	if g.rng.Intn(8) == 0 {
		// lda/ldah as address arithmetic on a pool register.
		op := "lda"
		if g.rng.Intn(2) == 0 {
			op = "ldah"
		}
		g.emit("  %s %s, %d(%s)", op, g.intReg(), g.rng.Intn(1<<12)-(1<<11), g.intReg())
		return
	}
	op := intOps[g.rng.Intn(len(intOps))]
	if g.rng.Intn(3) == 0 {
		g.emit("  %s %s, %d, %s", op, g.intReg(), g.rng.Intn(256), g.intReg())
	} else {
		g.emit("  %s %s, %s, %s", op, g.intReg(), g.intReg(), g.intReg())
	}
}

var fpOps = []string{"addt", "subt", "mult", "divt", "cpys", "cmpteq", "cmptlt"}

func (g *gen) fpOp() {
	op := fpOps[g.rng.Intn(len(fpOps))]
	g.emit("  %s %s, %s, %s", op, g.floatReg(), g.floatReg(), g.floatReg())
}

// address emits the scratch-region address computation into regAddr: mask
// a pool register to a size-aligned offset, add the base. The mask keeps
// offset+size inside the region for every size.
func (g *gen) address(size int) {
	mask := scratchSize - size // 0xFF8 for 8, ..., 0xFFF for 1
	g.emit("  and %s, %d, %s", g.intReg(), mask, regAddr)
	g.emit("  addq %s, %s, %s", regAddr, regBase, regAddr)
}

func (g *gen) loadOp() {
	type ld struct {
		op   string
		size int
	}
	l := []ld{{"ldbu", 1}, {"ldwu", 2}, {"ldl", 4}, {"ldq", 8}, {"ldt", 8}}[g.rng.Intn(5)]
	g.address(l.size)
	if l.op == "ldt" {
		g.emit("  ldt %s, 0(%s)", g.floatReg(), regAddr)
	} else {
		g.emit("  %s %s, 0(%s)", l.op, g.intReg(), regAddr)
	}
}

func (g *gen) storeOp() {
	type st struct {
		op   string
		size int
	}
	s := []st{{"stb", 1}, {"stw", 2}, {"stl", 4}, {"stq", 8}, {"stt", 8}}[g.rng.Intn(5)]
	g.address(s.size)
	if s.op == "stt" {
		g.emit("  stt %s, 0(%s)", g.floatReg(), regAddr)
	} else {
		g.emit("  %s %s, 0(%s)", s.op, g.intReg(), regAddr)
	}
}

var branchOps = []string{"beq", "bne", "blt", "ble", "bgt", "bge", "blbc", "blbs"}

// diamond emits a data-dependent forward if/else that reconverges.
func (g *gen) diamond() {
	els, join := g.label(), g.label()
	g.emit("  %s %s, %s", branchOps[g.rng.Intn(len(branchOps))], g.intReg(), els)
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.simpleItem()
	}
	g.emit("  br %s", join)
	g.emit("%s:", els)
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.simpleItem()
	}
	g.emit("%s:", join)
}

// loop emits a counted loop with a dedicated counter register. The body
// cannot clobber the counter (pool registers exclude it), so every loop
// runs exactly its trip count.
func (g *gen) loop(depth int) {
	ctr, trips, items := regOuter, 2+g.rng.Intn(9), 2+g.rng.Intn(4)
	if depth > 0 {
		ctr, trips, items = regInner, 2+g.rng.Intn(5), 1+g.rng.Intn(3)
	}
	top := g.label()
	g.emit("  li %s, %d", ctr, trips)
	g.emit("%s:", top)
	for i := 0; i < items; i++ {
		g.item(depth + 1)
	}
	g.emit("  subq %s, 1, %s", ctr, ctr)
	g.emit("  bne %s, %s", ctr, top)
}

// call emits a direct or register-indirect call to a generated function.
func (g *gen) call() {
	fn := g.funcs[g.rng.Intn(len(g.funcs))]
	if g.rng.Intn(3) == 0 {
		g.emit("  li %s, %s", regTarget, fn)
		g.emit("  jsr %s, (%s)", regRA, regTarget)
		return
	}
	g.emit("  bsr %s, %s", regRA, fn)
}

// indirectJump emits a register-indirect jump to the immediately following
// label — always forward, so it cannot form a cycle, but it exercises the
// BTB's indirect-target path.
func (g *gen) indirectJump() {
	next := g.label()
	g.emit("  li %s, %s", regTarget, next)
	g.emit("  jmp (%s)", regTarget)
	g.emit("%s:", next)
}
