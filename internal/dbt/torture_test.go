package dbt

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/core"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// Scheduler torture: generate random valid IR blocks, compile them under
// every mitigation mode and core geometry, execute the VLIW code, and
// compare the architectural outcome (registers, memory, next PC) against
// a sequential reference evaluation of the IR. This hits the scheduler,
// register allocator, commit/chk machinery and MCB recovery far harder
// than hand-written cases.

const (
	tortureMemBase = 0x20000
	tortureMemSize = 0x1000
)

// refEval executes the block sequentially with architectural semantics.
func refEval(b *ir.Block, regs *[32]uint64, mem *guestmem.Memory) (nextPC uint64, err error) {
	vals := make([]uint64, len(b.Insts))
	read := func(op ir.Operand) uint64 {
		switch op.Kind {
		case ir.OpRegIn:
			return regs[op.Reg]
		case ir.OpInst:
			return vals[op.Inst]
		}
		return 0
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		switch {
		case in.IsLoad():
			addr := read(in.A) + uint64(in.Imm)
			v, err := mem.Read(addr, in.Op.MemSize())
			if err != nil {
				return 0, err
			}
			vals[i] = riscv.ExtendLoad(in.Op, v)
		case in.IsStore():
			addr := read(in.A) + uint64(in.Imm)
			if err := mem.Write(addr, in.Op.MemSize(), read(in.B)); err != nil {
				return 0, err
			}
		case in.IsBranch():
			if riscv.EvalBranch(in.Op, read(in.A), read(in.B)) {
				// Side exit: architectural state is what we have now.
				flushRegs(b, vals, regs, i)
				return in.BranchExit, nil
			}
		default:
			fk, _ := in.Op.Info()
			if fk == riscv.FmtR {
				vals[i] = riscv.EvalALU(in.Op, read(in.A), read(in.B))
			} else {
				vals[i] = riscv.EvalALUImm(in.Op, read(in.A), in.Imm)
			}
		}
	}
	flushRegs(b, vals, regs, len(b.Insts))
	return b.FallPC, nil
}

// flushRegs applies the architectural register writes of instructions
// before position limit, in program order.
func flushRegs(b *ir.Block, vals []uint64, regs *[32]uint64, limit int) {
	for i := 0; i < limit; i++ {
		if d := b.Insts[i].DestArch; d > 0 {
			regs[d] = vals[i]
		}
	}
}

// genBlock builds a random valid IR block. Memory accesses use the two
// dedicated base registers (s4=r20, s5=r21) with bounded offsets so they
// never fault; everything else is fair game.
func genBlock(r *rand.Rand) *ir.Block {
	bu := ir.NewBuilder(0x10000)
	n := 6 + r.Intn(26)
	aluRR := []riscv.Op{riscv.ADD, riscv.SUB, riscv.XOR, riscv.OR, riscv.AND,
		riscv.SLL, riscv.SRL, riscv.SRA, riscv.MUL, riscv.MULW, riscv.ADDW,
		riscv.SUBW, riscv.SLT, riscv.SLTU}
	aluRI := []riscv.Op{riscv.ADDI, riscv.XORI, riscv.ORI, riscv.ANDI,
		riscv.SLTI, riscv.ADDIW}
	loads := []riscv.Op{riscv.LD, riscv.LW, riscv.LWU, riscv.LH, riscv.LBU, riscv.LB}
	stores := []riscv.Op{riscv.SD, riscv.SW, riscv.SH, riscv.SB}

	// Operands obey the renaming invariant: a register reads its CURRENT
	// in-block definition (FromInst) once redefined, the entry value
	// (RegIn) otherwise — exactly what ir.Builder guarantees. Stale
	// definitions are never referenced.
	curDef := map[uint8]int{}
	operand := func() ir.Operand {
		reg := uint8(5 + r.Intn(11))
		if d, ok := curDef[reg]; ok {
			return ir.FromInst(d)
		}
		return ir.RegIn(reg)
	}
	baseReg := func() ir.Operand { return ir.RegIn(uint8(20 + r.Intn(2))) }
	memOff := func() int64 { return int64(8 * r.Intn(64)) }
	// Destinations rotate over a small set to create WAW/WAR pressure.
	dest := func() int8 { return int8(5 + r.Intn(11)) }
	record := func(id int, d int8) {
		curDef[uint8(d)] = id
	}

	branches := 0
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 4:
			op := aluRR[r.Intn(len(aluRR))]
			d := dest()
			a, bop := operand(), operand()
			record(bu.Emit(ir.Inst{Op: op, A: a, B: bop, DestArch: d, PC: uint64(0x10000 + 4*i)}), d)
		case k < 6:
			op := aluRI[r.Intn(len(aluRI))]
			d := dest()
			a := operand()
			record(bu.Emit(ir.Inst{Op: op, A: a, Imm: int64(r.Intn(2048) - 1024), DestArch: d, PC: uint64(0x10000 + 4*i)}), d)
		case k < 8:
			op := loads[r.Intn(len(loads))]
			d := dest()
			record(bu.Emit(ir.Inst{Op: op, A: baseReg(), Imm: memOff(), DestArch: d, PC: uint64(0x10000 + 4*i)}), d)
		case k < 9:
			op := stores[r.Intn(len(stores))]
			bu.Emit(ir.Inst{Op: op, A: baseReg(), B: operand(), Imm: memOff(), DestArch: -1, PC: uint64(0x10000 + 4*i)})
		default:
			if branches < 3 {
				branches++
				ops := []riscv.Op{riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU}
				bu.Emit(ir.Inst{Op: ops[r.Intn(len(ops))], A: operand(), B: operand(),
					DestArch: -1, PC: uint64(0x10000 + 4*i),
					BranchExit: uint64(0x40000 + 0x100*branches)})
			}
		}
	}
	bu.SetFallthrough(0x30000, false)
	return bu.Block()
}

func TestSchedulerTorture(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	// Every mitigation mode faces the torture blocks, so a newly ported
	// mitigation is differentially checked automatically.
	modes := core.Modes()
	cores := []vliw.Config{vliw.NarrowConfig(), vliw.DefaultConfig(), vliw.WideConfig()}

	trials := 400
	if testing.Short() {
		trials = 60
	}
	// One mitigation and one scheduler memory shared by every trial, mode
	// and width, the way a machine reuses them region after region:
	// each compile through them must equal the fresh-memory compile, so
	// no table may carry stale data from a larger earlier region.
	reused, reusedMitigate := &graph{code: new(vliw.Arena)}, new(pipeline.Memory)
	for trial := 0; trial < trials; trial++ {
		blk := genBlock(r)
		if err := blk.Verify(); err != nil {
			t.Fatalf("trial %d: generated block invalid: %v", trial, err)
		}

		// Shared random initial state for all runs of this trial.
		var initRegs [32]uint64
		for i := 1; i < 32; i++ {
			initRegs[i] = r.Uint64()
		}
		initRegs[20] = tortureMemBase
		initRegs[21] = tortureMemBase + 0x400
		initMem := make([]byte, tortureMemSize)
		r.Read(initMem)

		// Reference outcome.
		refMem := guestmem.New(tortureMemBase, tortureMemSize)
		_ = refMem.WriteBytes(tortureMemBase, initMem)
		refRegs := initRegs
		wantPC, err := refEval(blk, &refRegs, refMem)
		if err != nil {
			t.Fatalf("trial %d: reference faulted: %v", trial, err)
		}

		for mi, mode := range modes {
			coreCfg := cores[(trial+mi)%len(cores)]
			// compile mutates edges (mitigation): work on a fresh block.
			blk2 := genBlockCopy(blk)
			res, err := compile(blk2, len(blk2.Insts), &coreCfg, mode)
			if err != nil {
				t.Fatalf("trial %d mode %s: compile: %v\n%s", trial, mode, err, blk)
			}
			blk3 := genBlockCopy(blk)
			again, err := compileWith(reused, reusedMitigate, blk3, len(blk3.Insts), &coreCfg, mode, false)
			if err != nil {
				t.Fatalf("trial %d mode %s: compile through reused memory: %v\n%s", trial, mode, err, blk)
			}
			if !sameReport(again.Report, res.Report) {
				t.Fatalf("trial %d mode %s: reused analysis memory changed the report\nIR:\n%s\nfresh:  %+v\nreused: %+v",
					trial, mode, blk, res.Report, again.Report)
			}
			if !reflect.DeepEqual(again.Block, res.Block) {
				t.Fatalf("trial %d mode %s: reused memory changed the block\nIR:\n%s\nfresh:\n%s\nreused:\n%s",
					trial, mode, blk, res.Block, again.Block)
			}
			mem := guestmem.New(tortureMemBase, tortureMemSize)
			_ = mem.WriteBytes(tortureMemBase, initMem)
			b := &bus.Bus{Mem: mem, DC: cache.MustNew(cache.DefaultConfig())}
			cpu := vliw.MustNewCore(coreCfg)
			var regs [vliw.NumRegs]uint64
			copy(regs[:32], initRegs[:])
			var cycles uint64
			ei := cpu.Exec(res.Block, &regs, b, &cycles)
			if ei.Fault != nil {
				t.Fatalf("trial %d mode %s: fault: %v\nIR:\n%s\nVLIW:\n%s",
					trial, mode, ei.Fault, blk, res.Block)
			}
			if ei.NextPC != wantPC {
				t.Fatalf("trial %d mode %s: next pc %#x, want %#x\nIR:\n%s\nVLIW:\n%s",
					trial, mode, ei.NextPC, wantPC, blk, res.Block)
			}
			for i := 1; i < 32; i++ {
				if regs[i] != refRegs[i] {
					t.Fatalf("trial %d mode %s: x%d = %#x, want %#x\nIR:\n%s\nVLIW:\n%s",
						trial, mode, i, regs[i], refRegs[i], blk, res.Block)
				}
			}
			got, _ := mem.ReadBytes(tortureMemBase, tortureMemSize)
			want, _ := refMem.ReadBytes(tortureMemBase, tortureMemSize)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d mode %s: mem[%#x] = %#x, want %#x\nIR:\n%s\nVLIW:\n%s",
						trial, mode, tortureMemBase+i, got[i], want[i], blk, res.Block)
				}
			}
		}
	}
}

// sameReport compares two analysis reports list by list, an empty list
// equal to a nil one (reused memory hands out empty, non-nil lists).
func sameReport(a, b core.Report) bool {
	return a.SpeculativeLoads == b.SpeculativeLoads && a.PoisonedInsts == b.PoisonedInsts &&
		a.GuardEdges == b.GuardEdges && slices.Equal(a.Poisoned, b.Poisoned) &&
		slices.Equal(a.RiskyLoads, b.RiskyLoads) && slices.Equal(a.Guards, b.Guards)
}

// genBlockCopy deep-copies a block (compile's mitigation pass mutates
// edge relaxability).
func genBlockCopy(b *ir.Block) *ir.Block {
	cp := &ir.Block{
		EntryPC:        b.EntryPC,
		FallPC:         b.FallPC,
		TerminatorExit: b.TerminatorExit,
		Insts:          append([]ir.Inst(nil), b.Insts...),
		Edges:          append([]ir.Edge(nil), b.Edges...),
	}
	return cp
}

// Self-modifying code: a guest program that stores over its own text
// must observe the new bytes when the patched instruction is next
// interpreted. This is the correctness contract of the predecode side
// table — a store invalidates the decoded slot via the bus hook, so the
// second pass re-decodes from memory. The patched instruction executes
// once before the store (so it is definitely in the table) and once
// after.
func TestSelfModifyingCode(t *testing.T) {
	// The replacement instruction is encoded by the real encoder and
	// materialised in a register with li, then stored over the patch
	// site: addi a0, a0, 100 replaces addi a0, a0, 1.
	newWord, err := riscv.Encode(riscv.Inst{Op: riscv.ADDI, Rd: 10, Rs1: 10, Imm: 100})
	if err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
main:
	li a0, 0
	li s1, 0
	la s2, patch
	li s3, %d
loop:
patch:
	addi a0, a0, 1
	sw s3, 0(s2)
	addi s1, s1, 1
	li t0, 2
	blt s1, t0, loop
	ecall
`, newWord)
	// Pass 1 adds 1, pass 2 runs the patched word and adds 100.
	const wantExit = 101

	cfgs := map[string]Config{}
	cfgs["predecode"] = DefaultConfig()
	noPre := DefaultConfig()
	noPre.DisablePredecode = true
	cfgs["no-predecode"] = noPre
	interp := DefaultConfig()
	interp.DisableTranslation = true
	cfgs["interp-predecode"] = interp
	interpNoPre := interp
	interpNoPre.DisablePredecode = true
	cfgs["interp-no-predecode"] = interpNoPre

	cycles := map[string]uint64{}
	for name, cfg := range cfgs {
		res, m := runSrc(t, src, cfg)
		if res.Exit.Code != wantExit {
			t.Fatalf("%s: exit code %d, want %d (patched instruction not observed)",
				name, res.Exit.Code, wantExit)
		}
		cycles[name] = res.Cycles
		if !cfg.DisablePredecode {
			if st := m.PredecodeStats(); st.Invalidations == 0 {
				t.Errorf("%s: store over text invalidated no predecode slots: %+v", name, st)
			}
		}
	}
	// The side table is a host accelerator: cycle counts must be
	// bit-identical with it on and off.
	if cycles["predecode"] != cycles["no-predecode"] {
		t.Errorf("cycle counts diverge with predecode: %d vs %d",
			cycles["predecode"], cycles["no-predecode"])
	}
	if cycles["interp-predecode"] != cycles["interp-no-predecode"] {
		t.Errorf("interpreter cycle counts diverge with predecode: %d vs %d",
			cycles["interp-predecode"], cycles["interp-no-predecode"])
	}
}

// Ensure the generator actually produces the speculation shapes we care
// about (otherwise the torture proves nothing).
func TestTortureGeneratorCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var relaxMem, relaxCtrl, branches, stores int
	for i := 0; i < 200; i++ {
		blk := genBlock(r)
		for _, e := range blk.Edges {
			if e.Relaxable && e.Kind == ir.EdgeMem {
				relaxMem++
			}
			if e.Relaxable && e.Kind == ir.EdgeCtrl {
				relaxCtrl++
			}
		}
		for i := range blk.Insts {
			if blk.Insts[i].IsBranch() {
				branches++
			}
			if blk.Insts[i].IsStore() {
				stores++
			}
		}
	}
	if relaxMem < 100 || relaxCtrl < 100 || branches < 50 || stores < 100 {
		t.Fatalf("generator coverage too thin: mem=%d ctrl=%d br=%d st=%d",
			relaxMem, relaxCtrl, branches, stores)
	}
	_ = fmt.Sprint()
}

// Self-modifying code under the fast backend: here the patched loop is
// hot — translated, upgraded to a trace and chained to itself — when
// the store lands. The store hook must drop the overlapping regions AND
// sever the cached chain links, or the stale chained successor keeps
// executing the old instruction. The loop adds 1 per iteration until
// iteration 40 patches the site to add 2; a wrong exit code means stale
// code ran after the store.
func TestSelfModifyingCodeChained(t *testing.T) {
	newWord, err := riscv.Encode(riscv.Inst{Op: riscv.ADDI, Rd: 10, Rs1: 10, Imm: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
main:
	li a0, 0
	li s1, 0
	la s2, patch
	li s3, %d
	li s4, 40
	li t0, 80
loop:
patch:
	addi a0, a0, 1
	bne s1, s4, skip
	sw s3, 0(s2)
skip:
	addi s1, s1, 1
	blt s1, t0, loop
	ecall
`, newWord)
	// Iterations 0..40 run the original +1 (the store fires at the end
	// of iteration 40, after the patch site executed), 41..79 run the
	// patched +2.
	const wantExit = 41*1 + 39*2

	cfgs := map[string]Config{}
	cfgs["chained"] = DefaultConfig()
	unchained := DefaultConfig()
	unchained.DisableChaining = true
	cfgs["unchained"] = unchained
	blocks := DefaultConfig()
	blocks.DisableTraces = true
	cfgs["blocks"] = blocks
	interp := DefaultConfig()
	interp.DisableTranslation = true
	cfgs["interp"] = interp

	cycles := map[string]uint64{}
	for name, cfg := range cfgs {
		res, _ := runSrc(t, src, cfg)
		if res.Exit.Code != wantExit {
			t.Fatalf("%s: exit code %d, want %d (stale translated code survived the store)",
				name, res.Exit.Code, wantExit)
		}
		cycles[name] = res.Cycles
		if !cfg.DisableTranslation {
			// The loop must actually have been translated before the
			// store hit it, and the store must have dropped regions —
			// otherwise this test exercises nothing.
			if res.Stats.Translations < 2 {
				t.Errorf("%s: only %d translations (loop never retranslated after the patch)",
					name, res.Stats.Translations)
			}
			if res.Stats.SMCInvalidations == 0 {
				t.Errorf("%s: store over hot translated text invalidated no regions: %+v",
					name, res.Stats)
			}
		}
	}
	// Chaining is a pure host-side dispatch accelerator: cycle counts
	// must be bit-identical with it on and off, including across the
	// invalidation.
	if cycles["chained"] != cycles["unchained"] {
		t.Errorf("cycle counts diverge with chaining: %d vs %d",
			cycles["chained"], cycles["unchained"])
	}
}
