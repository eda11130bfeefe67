package vliw

import (
	"ghostbusters/internal/bus"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// This file implements the threaded-code dispatch engine: instead of
// re-interpreting each syllable's Kind/Op through nested switches on
// every execution, a block is predecoded once into a flat table of dops
// — nops stripped, one handler function pointer per operation, ALU /
// branch / extend semantics resolved to direct function values, and a
// bundle-terminator pseudo-op carrying the write-phase, recovery and
// exit logic. The table is built at translation time (or lazily on
// first dispatch) and shared read-only afterwards, so the steady-state
// execution loop stays allocation-free.

// ctl is a handler's verdict: continue with the next dop, or stop the
// block (c.fr.exit holds the completed ExitInfo, fault or not).
type ctl uint8

const (
	ctlNext ctl = iota
	ctlStop
)

// dop is one predecoded operation. The handler fn interprets the other
// fields; alu/ext/cmp are the pre-resolved semantic functions so the
// hot path never switches on riscv.Op again. sy points back into the
// block's bundle storage for diagnostics (poison faults print the
// original syllable).
type dop struct {
	fn  func(c *Core, d *dop) ctl
	alu func(a, b uint64) uint64
	ext func(v uint64) uint64
	cmp func(a, b uint64) bool
	sy  *Syllable
	imm int64
	pc  uint64
	dst uint8
	ra  uint8
	rb  uint8
	tag uint8
	siz uint8
	rec int16
}

// decoded is the immutable threaded-dispatch table of one block.
type decoded struct {
	ops []dop
}

// execFrame is the per-Exec machine state shared by the dop handlers,
// kept on the Core so dispatch is allocation-free.
type execFrame struct {
	regs      *[NumRegs]uint64
	b         *bus.Bus
	cycles    *uint64
	blk       *Block
	hitLat    uint64
	exitTo    uint64
	exitPC    uint64
	nextPC    uint64
	exitTaken bool
	haveNext  bool
	poisoned  [NumRegs]bool
	exit      ExitInfo
}

func (fr *execFrame) read(r uint8) uint64 {
	if r == 0 {
		return 0
	}
	return fr.regs[r]
}

func (fr *execFrame) poisonIn(r uint8) bool { return r != 0 && fr.poisoned[r] }

// fail terminates the block with a fault, mirroring the architectural
// contract: the MCB is drained and the fault is pinned to the guest PC
// of the operation when lower layers did not set one.
func (c *Core) fail(err error, pc uint64) ctl {
	c.MCB.Reset()
	f := trap.From(err)
	if f.PC == 0 {
		f.PC = pc
	}
	c.fr.exit = ExitInfo{Fault: f, FaultPC: pc}
	return ctlStop
}

// push records a pending register write for the bundle's write phase.
func (c *Core) push(d *dop, v uint64, p bool) ctl {
	if d.dst == 0 {
		return ctlNext
	}
	scr := &c.scr
	if scr.written[d.dst] {
		return c.fail(errInternal(d.pc, "vliw: double write of r%d in one bundle", d.dst), d.pc)
	}
	scr.written[d.dst] = true
	scr.writes = append(scr.writes, pendingWrite{d.dst, v, p})
	return ctlNext
}

func opAluRR(c *Core, d *dop) ctl {
	fr := &c.fr
	p := fr.poisonIn(d.ra) || fr.poisonIn(d.rb)
	return c.push(d, d.alu(fr.read(d.ra), fr.read(d.rb)), p)
}

func opAluRI(c *Core, d *dop) ctl {
	fr := &c.fr
	return c.push(d, d.alu(fr.read(d.ra), uint64(d.imm)), fr.poisonIn(d.ra))
}

func opMovI(c *Core, d *dop) ctl {
	return c.push(d, uint64(d.imm), false)
}

func opLoad(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(d.sy), d.pc)
	}
	addr := fr.read(d.ra) + uint64(d.imm)
	v, lat, err := fr.b.Load(addr, int(d.siz))
	if err != nil {
		return c.fail(err, d.pc)
	}
	if lat > fr.hitLat {
		*fr.cycles += lat - fr.hitLat // stall-on-miss
	}
	return c.push(d, d.ext(v), false)
}

// specLoad is the shared body of KLoadD/KLoadS: dismissable semantics,
// poison on squash, ground-truth observer hook, spec-level tracing.
func specLoad(c *Core, d *dop, mcb bool) ctl {
	fr := &c.fr
	c.Stats.SpecLoads++
	squashed := fr.poisonIn(d.ra)
	var val uint64
	var addr uint64
	if !squashed {
		addr = fr.read(d.ra) + uint64(d.imm)
		v, lat, ok := fr.b.LoadSpeculative(addr, int(d.siz))
		if ok {
			if lat > fr.hitLat {
				*fr.cycles += lat - fr.hitLat
			}
			val = d.ext(v)
			if fr.b.OnSpecLoad != nil {
				// The ground-truth observer: this cache fill
				// happened under speculation (see bus.OnSpecLoad).
				fr.b.OnSpecLoad(d.pc, addr, *fr.cycles)
			}
		} else {
			squashed = true
		}
	}
	if squashed {
		c.Stats.SpecSquash++
	}
	if c.Tracer.SpecOn() {
		c.Tracer.Emit(obs.Event{Kind: obs.EvSpecLoad, Cycle: *fr.cycles, PC: d.pc, Arg1: addr})
		if squashed {
			c.Tracer.Emit(obs.Event{Kind: obs.EvSpecSquash, Cycle: *fr.cycles, PC: d.pc, Arg1: addr})
		}
	}
	if mcb {
		if err := c.MCB.Insert(d.tag, addr, int(d.siz), squashed); err != nil {
			return c.fail(err, d.pc)
		}
		if c.Tracer.SpecOn() {
			c.Tracer.Emit(obs.Event{Kind: obs.EvCounter, Cycle: *fr.cycles,
				Arg1: uint64(c.MCB.Outstanding()), Str: obs.CtrMCBOccupancy})
		}
	}
	return c.push(d, val, squashed)
}

func opLoadD(c *Core, d *dop) ctl { return specLoad(c, d, false) }
func opLoadS(c *Core, d *dop) ctl { return specLoad(c, d, true) }

func opStore(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) || fr.poisonIn(d.rb) {
		return c.fail(errPoisonUse(d.sy), d.pc)
	}
	addr := fr.read(d.ra) + uint64(d.imm)
	lat, err := fr.b.Store(addr, int(d.siz), fr.read(d.rb))
	if err != nil {
		return c.fail(err, d.pc)
	}
	if lat > fr.hitLat {
		*fr.cycles += lat - fr.hitLat
	}
	c.MCB.StoreCheck(addr, int(d.siz))
	return ctlNext
}

func opChk(c *Core, d *dop) ctl {
	fr := &c.fr
	conflict, faulted, err := c.MCB.Consume(d.tag)
	if err != nil {
		return c.fail(err, d.pc)
	}
	if c.Tracer.SpecOn() {
		c.Tracer.Emit(obs.Event{Kind: obs.EvCounter, Cycle: *fr.cycles,
			Arg1: uint64(c.MCB.Outstanding()), Str: obs.CtrMCBOccupancy})
	}
	if faulted {
		// The speculative load faults at its original
		// program position (exception no longer deferred).
		return c.fail(trap.Newf(trap.DeferredFault, "speculative load fault delivered at chk"), d.pc)
	}
	if conflict {
		c.scr.recov = append(c.scr.recov, d.rec)
	}
	return ctlNext
}

func opBrExit(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) || fr.poisonIn(d.rb) {
		return c.fail(errPoisonUse(d.sy), d.pc)
	}
	if d.cmp(fr.read(d.ra), fr.read(d.rb)) {
		fr.exitTaken = true
		fr.exitTo = uint64(d.imm)
		fr.exitPC = d.pc
	}
	return ctlNext
}

func opJump(c *Core, d *dop) ctl {
	fr := &c.fr
	fr.nextPC, fr.haveNext = uint64(d.imm), true
	return ctlNext
}

func opJumpR(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(d.sy), d.pc)
	}
	fr.nextPC, fr.haveNext = fr.read(d.ra)+uint64(d.imm), true
	return ctlNext
}

func opCsr(c *Core, d *dop) ctl {
	fr := &c.fr
	var v uint64
	switch d.imm {
	case riscv.CSRCycle, riscv.CSRTime:
		v = *fr.cycles
	case riscv.CSRInstret:
		v = c.Instret
	}
	return c.push(d, v, false)
}

func opFlushAll(c *Core, d *dop) ctl {
	c.fr.b.FlushAll()
	return ctlNext
}

func opFlushLine(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(d.sy), d.pc)
	}
	fr.b.FlushLine(fr.read(d.ra))
	return ctlNext
}

func opCommit(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(d.sy), d.pc)
	}
	return c.push(d, fr.read(d.ra), false)
}

func opBadKind(c *Core, d *dop) ctl {
	return c.fail(errInternal(d.pc, "vliw: unknown syllable kind %d", d.sy.Kind), d.pc)
}

// finishBundle runs the bundle's write phase, any MCB recoveries
// detected in check order, and the exit decision — the tail of the old
// per-bundle interpreter loop, verbatim.
func (c *Core) finishBundle() ctl {
	fr := &c.fr
	scr := &c.scr

	// Write phase: all bundle results commit together.
	for _, w := range scr.writes {
		fr.regs[w.reg] = w.val
		fr.poisoned[w.reg] = w.poison
	}

	blk := fr.blk
	for _, rec := range scr.recov {
		if int(rec) < 0 || int(rec) >= len(blk.Recoveries) {
			return c.fail(errInternal(0, "vliw: recovery %d out of range", rec), 0)
		}
		c.Stats.Recoveries++
		*fr.cycles += c.Cfg.RecoveryPenalty
		if c.Tracer.SpecOn() {
			var rpc uint64
			if seq := blk.Recoveries[rec]; len(seq) > 0 {
				rpc = seq[0].GuestPC
			}
			c.Tracer.Emit(obs.Event{Kind: obs.EvRecovery, Cycle: *fr.cycles, PC: rpc, Arg1: uint64(rec)})
		}
		if ei := c.execRecovery(blk.Recoveries[rec], fr.regs, &fr.poisoned, fr.b, fr.cycles); ei != nil {
			fr.exit = *ei
			return ctlStop
		}
	}

	if fr.exitTaken {
		*fr.cycles += c.Cfg.ExitPenalty
		c.Stats.SideExits++
		if c.Tracer.BlockOn() {
			c.Tracer.Emit(obs.Event{Kind: obs.EvSideExit, Cycle: *fr.cycles, PC: fr.exitPC, Arg1: fr.exitTo})
		}
		c.MCB.Reset()
		c.Instret += uint64(blk.GuestInsts) // approximate retirement
		fr.exit = ExitInfo{NextPC: fr.exitTo, SideExit: true}
		return ctlStop
	}
	if fr.haveNext {
		if n := c.MCB.Outstanding(); n != 0 {
			return c.fail(errInternal(0, "vliw: %d MCB entries outstanding at block exit", n), 0)
		}
		c.Instret += uint64(blk.GuestInsts)
		fr.exit = ExitInfo{NextPC: fr.nextPC}
		return ctlStop
	}
	return ctlNext
}

// opEndBundle terminates a non-final bundle: finish it, then open the
// next one (cycle, bundle count, scratch reset — the old loop header).
func opEndBundle(c *Core, d *dop) ctl {
	if r := c.finishBundle(); r != ctlNext {
		return r
	}
	*c.fr.cycles++
	c.Stats.Bundles++
	c.scr.reset()
	return ctlNext
}

// opEndBlock terminates the final bundle: finish it, then fall through
// to the block's FallPC.
func opEndBlock(c *Core, d *dop) ctl {
	if r := c.finishBundle(); r != ctlNext {
		return r
	}
	fr := &c.fr
	if n := c.MCB.Outstanding(); n != 0 {
		return c.fail(errInternal(0, "vliw: %d MCB entries outstanding at block fallthrough", n), 0)
	}
	c.Instret += uint64(fr.blk.GuestInsts)
	fr.exit = ExitInfo{NextPC: fr.blk.FallPC}
	return ctlStop
}

// buildDecoded flattens a block into its threaded-dispatch table: one
// op per non-nop syllable plus one terminator per bundle, allocated once
// at that exact size.
func buildDecoded(blk *Block) *decoded {
	n := len(blk.Bundles)
	for _, bundle := range blk.Bundles {
		for i := range bundle {
			if bundle[i].Kind != KNop {
				n++
			}
		}
	}
	ops := make([]dop, 0, n)
	for bi := range blk.Bundles {
		bundle := blk.Bundles[bi]
		for i := range bundle {
			sy := &bundle[i]
			if sy.Kind == KNop {
				continue
			}
			d := dop{
				sy: sy, imm: sy.Imm, pc: sy.GuestPC,
				dst: sy.Dst, ra: sy.Ra, rb: sy.Rb,
				tag: sy.Tag, rec: sy.Rec,
			}
			switch sy.Kind {
			case KAluRR:
				d.fn, d.alu = opAluRR, aluFunc(sy.Op)
			case KAluRI:
				d.fn, d.alu = opAluRI, aluImmFunc(sy.Op)
			case KMovI:
				d.fn = opMovI
			case KLoad:
				d.fn, d.siz, d.ext = opLoad, uint8(sy.Op.MemSize()), extendFunc(sy.Op)
			case KLoadD:
				d.fn, d.siz, d.ext = opLoadD, uint8(sy.Op.MemSize()), extendFunc(sy.Op)
			case KLoadS:
				d.fn, d.siz, d.ext = opLoadS, uint8(sy.Op.MemSize()), extendFunc(sy.Op)
			case KStore:
				d.fn, d.siz = opStore, uint8(sy.Op.MemSize())
			case KChk:
				d.fn = opChk
			case KBrExit:
				d.fn, d.cmp = opBrExit, branchFunc(sy.Op)
			case KJump:
				d.fn = opJump
			case KJumpR:
				d.fn = opJumpR
			case KCsr:
				d.fn = opCsr
			case KFlush:
				if sy.Op == riscv.CFLUSHALL {
					d.fn = opFlushAll
				} else {
					d.fn = opFlushLine
				}
			case KCommit:
				d.fn = opCommit
			default:
				d.fn = opBadKind
			}
			ops = append(ops, d)
		}
		term := dop{fn: opEndBundle}
		if bi == len(blk.Bundles)-1 {
			term.fn = opEndBlock
		}
		ops = append(ops, term)
	}
	return &decoded{ops: ops}
}

// Pre-resolved semantic functions. Named package-level functions for
// the common operations keep decode allocation-light; rare or unknown
// operations fall back to a closure over the generic evaluator so the
// semantics (including the zero result for unknown ops) stay identical
// to the switch-based interpreter.

func aluAdd(a, b uint64) uint64  { return a + b }
func aluSub(a, b uint64) uint64  { return a - b }
func aluSll(a, b uint64) uint64  { return a << (b & 63) }
func aluSrl(a, b uint64) uint64  { return a >> (b & 63) }
func aluSra(a, b uint64) uint64  { return uint64(int64(a) >> (b & 63)) }
func aluXor(a, b uint64) uint64  { return a ^ b }
func aluOr(a, b uint64) uint64   { return a | b }
func aluAnd(a, b uint64) uint64  { return a & b }
func aluMul(a, b uint64) uint64  { return a * b }
func aluAddw(a, b uint64) uint64 { return uint64(int64(int32(a + b))) }
func aluSubw(a, b uint64) uint64 { return uint64(int64(int32(a - b))) }
func aluSllw(a, b uint64) uint64 { return uint64(int64(int32(uint32(a) << (b & 31)))) }
func aluSrlw(a, b uint64) uint64 { return uint64(int64(int32(uint32(a) >> (b & 31)))) }
func aluSraw(a, b uint64) uint64 { return uint64(int64(int32(a) >> (b & 31))) }
func aluSlt(a, b uint64) uint64 {
	if int64(a) < int64(b) {
		return 1
	}
	return 0
}
func aluSltu(a, b uint64) uint64 {
	if a < b {
		return 1
	}
	return 0
}

// aluFunc resolves a register-register ALU op to a direct function.
func aluFunc(op riscv.Op) func(a, b uint64) uint64 {
	switch op {
	case riscv.ADD:
		return aluAdd
	case riscv.SUB:
		return aluSub
	case riscv.SLL:
		return aluSll
	case riscv.SLT:
		return aluSlt
	case riscv.SLTU:
		return aluSltu
	case riscv.XOR:
		return aluXor
	case riscv.SRL:
		return aluSrl
	case riscv.SRA:
		return aluSra
	case riscv.OR:
		return aluOr
	case riscv.AND:
		return aluAnd
	case riscv.ADDW:
		return aluAddw
	case riscv.SUBW:
		return aluSubw
	case riscv.SLLW:
		return aluSllw
	case riscv.SRLW:
		return aluSrlw
	case riscv.SRAW:
		return aluSraw
	case riscv.MUL:
		return aluMul
	}
	return func(a, b uint64) uint64 { return riscv.EvalALU(op, a, b) }
}

// aluImmFunc resolves a register-immediate ALU op to a two-operand
// function (the handler passes the decoded immediate as b). Every RI
// op's semantics coincide with its RR counterpart under that calling
// convention; anything unmapped falls back to the generic evaluator.
func aluImmFunc(op riscv.Op) func(a, b uint64) uint64 {
	switch op {
	case riscv.ADDI:
		return aluAdd
	case riscv.SLTI:
		return aluSlt
	case riscv.SLTIU:
		return aluSltu
	case riscv.XORI:
		return aluXor
	case riscv.ORI:
		return aluOr
	case riscv.ANDI:
		return aluAnd
	case riscv.SLLI:
		return aluSll
	case riscv.SRLI:
		return aluSrl
	case riscv.SRAI:
		return aluSra
	case riscv.ADDIW:
		return aluAddw
	case riscv.SLLIW:
		return aluSllw
	case riscv.SRLIW:
		return aluSrlw
	case riscv.SRAIW:
		return aluSraw
	}
	return func(a, b uint64) uint64 { return riscv.EvalALUImm(op, a, int64(b)) }
}

func extIdent(v uint64) uint64 { return v }
func extB(v uint64) uint64     { return uint64(int64(int8(v))) }
func extH(v uint64) uint64     { return uint64(int64(int16(v))) }
func extW(v uint64) uint64     { return uint64(int64(int32(v))) }

// extendFunc resolves a load op's sign/zero extension.
func extendFunc(op riscv.Op) func(v uint64) uint64 {
	switch op {
	case riscv.LB:
		return extB
	case riscv.LH:
		return extH
	case riscv.LW:
		return extW
	case riscv.LD, riscv.LBU, riscv.LHU, riscv.LWU:
		return extIdent
	}
	return func(v uint64) uint64 { return riscv.ExtendLoad(op, v) }
}

func brEq(a, b uint64) bool    { return a == b }
func brNe(a, b uint64) bool    { return a != b }
func brLt(a, b uint64) bool    { return int64(a) < int64(b) }
func brGe(a, b uint64) bool    { return int64(a) >= int64(b) }
func brLtu(a, b uint64) bool   { return a < b }
func brGeu(a, b uint64) bool   { return a >= b }
func brNever(a, b uint64) bool { return false }

// branchFunc resolves a side-exit condition.
func branchFunc(op riscv.Op) func(a, b uint64) bool {
	switch op {
	case riscv.BEQ:
		return brEq
	case riscv.BNE:
		return brNe
	case riscv.BLT:
		return brLt
	case riscv.BGE:
		return brGe
	case riscv.BLTU:
		return brLtu
	case riscv.BGEU:
		return brGeu
	}
	return brNever
}
