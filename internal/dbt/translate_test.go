package dbt

import (
	"strings"
	"testing"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/core"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// defaultLimits are DefaultConfig's trace limits.
func defaultLimits() translateLimits { return translateLimits{MaxInsts: 48, MaxUnroll: 4} }

// fetchFor loads a program into a bus for the translator.
func fetchFor(t *testing.T, src string) (*bus.Bus, *riscv.Program) {
	t.Helper()
	p := riscv.MustAssemble(src)
	mem := guestmem.New(0x10000, 1<<20)
	b := bus.MustNew(mem, cache.DefaultConfig())
	for i, w := range p.Text {
		if err := mem.Write(p.TextBase+uint64(4*i), 4, uint64(w)); err != nil {
			t.Fatal(err)
		}
	}
	return b, p
}

func TestTranslateBasicBlockStopsAtBranch(t *testing.T) {
	b, p := fetchFor(t, `
main:
	addi t0, t0, 1
	addi t1, t1, 2
	beq t0, t1, main
	addi t2, t2, 3
	ecall
`)
	blk, gi, err := translate(b, p.Entry, nil, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if gi != 3 {
		t.Fatalf("guest insts = %d, want 3 (stop at branch)", gi)
	}
	last := blk.Insts[len(blk.Insts)-1]
	if !last.IsBranch() || last.BranchExit != p.Entry {
		t.Fatalf("last inst %v, want branch exiting to main", last)
	}
	if blk.FallPC != p.Entry+12 {
		t.Fatalf("FallPC = %#x, want %#x", blk.FallPC, p.Entry+12)
	}
}

func TestTranslateStopsBeforeEcall(t *testing.T) {
	b, p := fetchFor(t, `
main:
	addi t0, t0, 1
	ecall
`)
	blk, gi, err := translate(b, p.Entry, nil, defaultLimits())
	if err != nil || gi != 1 {
		t.Fatalf("gi=%d err=%v", gi, err)
	}
	if blk.FallPC != p.Entry+4 {
		t.Fatalf("FallPC = %#x (should point at the ecall)", blk.FallPC)
	}
}

func TestTranslateRejectsEcallOnly(t *testing.T) {
	b, p := fetchFor(t, "main:\n\tecall\n")
	if _, _, err := translate(b, p.Entry, nil, defaultLimits()); err != errUntranslatable {
		t.Fatalf("err = %v, want errUntranslatable", err)
	}
}

func TestTranslateNormalisesTakenBranch(t *testing.T) {
	// Oracle says taken: the branch must be inverted so fall-through
	// stays in trace and the exit goes to the not-taken side.
	b, p := fetchFor(t, `
main:
	blt t0, t1, target
	addi t2, t2, 1
	ecall
target:
	addi t3, t3, 1
	ecall
`)
	oracle := func(pc uint64) (bool, bool) { return true, true }
	blk, _, err := translate(b, p.Entry, oracle, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	br := blk.Insts[0]
	if br.Op != riscv.BGE {
		t.Fatalf("branch not inverted: %v", br.Op)
	}
	if br.BranchExit != p.Entry+4 {
		t.Fatalf("exit = %#x, want fall-through %#x", br.BranchExit, p.Entry+4)
	}
	// The trace must continue with the target block's addi t3.
	if blk.Insts[1].DestArch != 28 {
		t.Fatalf("trace did not follow the taken side: %v", blk.Insts[1])
	}
}

func TestTranslateFollowsPlainJumps(t *testing.T) {
	b, p := fetchFor(t, `
main:
	addi t0, t0, 1
	j hop
back:
	ecall
hop:
	addi t1, t1, 1
	j back
`)
	oracle := func(pc uint64) (bool, bool) { return false, false }
	blk, gi, err := translate(b, p.Entry, oracle, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	// addi, j, addi, j = 4 guest insts; IR has the two addis.
	if gi != 4 || len(blk.Insts) != 2 {
		t.Fatalf("gi=%d irLen=%d", gi, len(blk.Insts))
	}
	if blk.FallPC != p.MustSymbol("back") {
		t.Fatalf("FallPC = %#x", blk.FallPC)
	}
}

func TestTranslateCallEndsBlockWithLink(t *testing.T) {
	b, p := fetchFor(t, `
main:
	addi t0, t0, 1
	call fn
	ecall
fn:
	ret
`)
	blk, gi, err := translate(b, p.Entry, nil, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if gi != 2 {
		t.Fatalf("gi = %d", gi)
	}
	link := blk.Insts[len(blk.Insts)-1]
	if link.DestArch != 1 || uint64(link.Imm) != p.Entry+8 {
		t.Fatalf("link inst = %+v", link)
	}
	if blk.FallPC != p.MustSymbol("fn") {
		t.Fatalf("FallPC = %#x", blk.FallPC)
	}
}

func TestTranslateJALRTerminator(t *testing.T) {
	b, p := fetchFor(t, `
main:
	jalr ra, 8(t0)
`)
	blk, _, err := translate(b, p.Entry, nil, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !blk.TerminatorExit {
		t.Fatal("JALR block must be a terminator exit")
	}
	last := blk.Insts[len(blk.Insts)-1]
	if last.Op != riscv.JALR || last.Imm != 8 {
		t.Fatalf("terminator = %+v", last)
	}
	// The link write must capture old t0 semantics: the JALR target
	// operand refers to the pre-link register state.
	if last.A.Kind != 0 && last.A.Kind != 1 { // RegIn expected
		t.Fatalf("jalr base operand %v", last.A)
	}
}

func TestTranslateUnrollCaps(t *testing.T) {
	b, p := fetchFor(t, `
main:
	addi t0, t0, 1
	blt t0, t1, main
	ecall
`)
	oracle := func(pc uint64) (bool, bool) { return true, true }
	lim := translateLimits{MaxInsts: 48, MaxUnroll: 3}
	blk, gi, err := translate(b, p.Entry, oracle, lim)
	if err != nil {
		t.Fatal(err)
	}
	if gi != 6 { // 3 unrolled copies of (addi, blt)
		t.Fatalf("gi = %d, want 6", gi)
	}
	if blk.FallPC != p.Entry {
		t.Fatalf("loop trace must fall back to the entry, got %#x", blk.FallPC)
	}
	nBranches := 0
	for _, in := range blk.Insts {
		if in.IsBranch() {
			nBranches++
		}
	}
	if nBranches != 3 {
		t.Fatalf("branches = %d, want 3", nBranches)
	}
}

func TestTranslateInstLimit(t *testing.T) {
	src := "main:\n"
	for i := 0; i < 100; i++ {
		src += "\taddi t0, t0, 1\n"
	}
	src += "\tecall\n"
	b, p := fetchFor(t, src)
	lim := translateLimits{MaxInsts: 10, MaxUnroll: 4}
	blk, gi, err := translate(b, p.Entry, nil, lim)
	if err != nil {
		t.Fatal(err)
	}
	if gi != 10 {
		t.Fatalf("gi = %d, want 10 (inst cap)", gi)
	}
	if blk.FallPC != p.Entry+40 {
		t.Fatalf("FallPC = %#x", blk.FallPC)
	}
}

func TestTranslateInnerCycleStops(t *testing.T) {
	// A biased branch that jumps backwards to a non-entry PC would spin
	// the translator without the visited check.
	b, p := fetchFor(t, `
main:
	addi t0, t0, 1
inner:
	addi t1, t1, 1
	blt t1, t2, inner
	ecall
`)
	oracle := func(pc uint64) (bool, bool) { return true, true }
	blk, _, err := translate(b, p.Entry, oracle, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if blk.FallPC != p.MustSymbol("inner") {
		t.Fatalf("FallPC = %#x, want inner loop head", blk.FallPC)
	}
}

func TestInvertBranchTotal(t *testing.T) {
	pairs := map[riscv.Op]riscv.Op{
		riscv.BEQ: riscv.BNE, riscv.BNE: riscv.BEQ,
		riscv.BLT: riscv.BGE, riscv.BGE: riscv.BLT,
		riscv.BLTU: riscv.BGEU, riscv.BGEU: riscv.BLTU,
	}
	for op, want := range pairs {
		got, ok := invertBranch(op)
		if !ok || got != want {
			t.Errorf("invert(%s) = %s, %v, want %s", op, got, ok, want)
		}
	}
	if _, ok := invertBranch(riscv.ADD); ok {
		t.Error("invertBranch(ADD) must report ok=false")
	}
}

// Scheduler-level checks on a compiled block.
func TestCompileRespectsSlotCaps(t *testing.T) {
	b, p := fetchFor(t, `
main:
	ld t0, 0(s0)
	ld t1, 8(s0)
	mul t2, t0, t1
	mul t3, t1, t0
	add t4, t2, t3
	sd t4, 16(s0)
	ecall
`)
	blk, gi, err := translate(b, p.Entry, nil, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vliw.DefaultConfig()
	res, err := compile(blk, gi, &cfg, core.ModeUnsafe)
	if err != nil {
		t.Fatal(err)
	}
	for bi, bun := range res.Block.Bundles {
		if len(bun) != cfg.Width() {
			t.Fatalf("bundle %d has width %d", bi, len(bun))
		}
		for si, syl := range bun {
			if syl.Kind == vliw.KNop {
				continue
			}
			need := vliw.CapFor(syl.Kind, syl.Op)
			if cfg.Slots[si]&need == 0 {
				t.Errorf("bundle %d slot %d: %s needs cap %#x, slot provides %#x",
					bi, si, syl, need, cfg.Slots[si])
			}
		}
	}
}

func TestCompileOrdersChkBeforeLaterStores(t *testing.T) {
	// lds speculation: the chk must precede any later store so the MCB
	// never sees stale entries.
	b, p := fetchFor(t, `
main:
	sd t0, 0(s0)
	ld t1, 0(s1)
	sd t2, 0(s2)
	ecall
`)
	blk, gi, err := translate(b, p.Entry, nil, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vliw.DefaultConfig()
	res, err := compile(blk, gi, &cfg, core.ModeUnsafe)
	if err != nil {
		t.Fatal(err)
	}
	chkCycle, store2Cycle := -1, -1
	storesSeen := 0
	for bi, bun := range res.Block.Bundles {
		for _, syl := range bun {
			switch syl.Kind {
			case vliw.KChk:
				chkCycle = bi
			case vliw.KStore:
				storesSeen++
				if storesSeen == 2 {
					store2Cycle = bi
				}
			}
		}
	}
	if chkCycle < 0 {
		t.Skip("no speculation materialised (alias analysis proved disjoint)")
	}
	if store2Cycle >= 0 && chkCycle >= store2Cycle {
		t.Fatalf("chk at bundle %d not before the later store at %d", chkCycle, store2Cycle)
	}
}

func TestCompileReportsMitigation(t *testing.T) {
	// The Fig. 1 gadget as raw guest code, compiled directly.
	b, p := fetchFor(t, `
main:
	bgeu a0, t0, out
	add t1, s0, a0
	lbu t2, 0(t1)
	slli t2, t2, 7
	add t3, s1, t2
	lbu t4, 0(t3)
out:
	ecall
`)
	oracle := func(pc uint64) (bool, bool) { return false, true } // follow fall-through
	blk, gi, err := translate(b, p.Entry, oracle, defaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vliw.DefaultConfig()
	res, err := compile(blk, gi, &cfg, core.ModeGhostBusters)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PatternFound() {
		t.Fatal("the Fig. 1 gadget must be detected")
	}
	if len(res.Report.RiskyLoads) != 1 {
		t.Fatalf("risky loads = %v", res.Report.RiskyLoads)
	}
	// The translated block must not contain a dismissable form of the
	// risky (second) load: it was pinned.
	text := res.Block.String()
	if !strings.Contains(text, "br.") {
		t.Fatalf("no branch in block:\n%s", text)
	}
}
