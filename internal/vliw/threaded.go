package vliw

import (
	"math/bits"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// This file implements the threaded-code dispatch engine: instead of
// re-interpreting each syllable's Kind/Op through nested switches on
// every execution, a block is predecoded once into a flat table of dops
// — one per live syllable of the block's dense form (a fence's nop has
// none), one handler function pointer per operation, ALU / branch /
// extend semantics resolved to direct function values, each result's
// write mode fixed (see writeSchedule) and the handler chosen for it
// (see specialise), and a bundle-terminator pseudo-op carrying
// the write-phase, recovery and exit logic. The block's MCB recovery
// sequences follow the last terminator in the same table, one op per
// syllable, each a bundle of its own. The table is built at translation
// time (or lazily on first dispatch) and shared read-only afterwards,
// so the steady-state execution loop stays allocation-free.

// ctl is a handler's verdict: continue with the next dop, or stop the
// block (c.fr.exit holds the completed ExitInfo, fault or not).
type ctl uint8

const (
	ctlNext ctl = iota
	ctlStop
)

// Write modes: how a writing dop's result reaches the register file.
// A bundle reads every operand before any of its results lands, and a
// faulting bundle commits none of them; which registers a bundle writes
// and what its later syllables read is fixed at predecode, so the mode
// is too (see writeSchedule).
const (
	wmNone   uint8 = iota // no register write (a non-writer, or dst r0)
	wmDirect              // write regs/poisoned in place: nothing later in the bundle can tell
	wmStaged              // write the core's stage; the bundle terminator commits it
	wmDouble              // a second write of dst in the bundle: fault after the op's work
)

// dop is one predecoded operation, 32 bytes (two to a cache line). The
// handler fn interprets the other fields; sem is the pre-resolved
// semantic function so the hot path never switches on riscv.Op again:
// the ALU op of an alu/alui, the extension of a load (its second operand
// unused), the condition of a br.exit (1 if taken). sy indexes the
// syllable in the block's Syls, through which the fault, exit and
// observer paths read its guest PC (and a chk its recovery index). A
// bundle terminator carries the bundle's staged write mask in imm, and a
// chk where its recovery's ops sit (see recoveryRange).
type dop struct {
	fn  func(c *Core, d *dop) ctl
	sem func(a, b uint64) uint64
	imm int64
	sy  uint16
	dst uint8
	ra  uint8
	rb  uint8
	tag uint8
	siz uint8
	wm  uint8
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
	ops       []dop
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

// syl returns the syllable d was predecoded from, and pc its guest PC.
func (fr *execFrame) syl(d *dop) *Syllable { return &fr.blk.Syls[d.sy] }
func (fr *execFrame) pc(d *dop) uint64     { return fr.blk.Syls[d.sy].GuestPC }

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

// push delivers a result by the dop's predecoded write mode.
func (c *Core) push(d *dop, v uint64, p bool) ctl {
	switch d.wm {
	case wmDirect:
		c.fr.regs[d.dst] = v
		c.fr.poisoned[d.dst] = p
	case wmStaged:
		c.scr.val[d.dst] = v
		c.scr.poison[d.dst] = p
	case wmDouble:
		pc := c.fr.pc(d)
		return c.fail(errInternal(pc, "vliw: double write of r%d in one bundle", d.dst), pc)
	}
	return ctlNext
}

// Direct handlers: the dop's write mode is wmDirect, so the result
// lands in place without push's switch (see specialise). The value is
// computed before regs is written and the poison before poisoned is,
// so dst may also be an operand.

func opAluRRDirect(c *Core, d *dop) ctl {
	fr := &c.fr
	fr.regs[d.dst] = d.sem(fr.read(d.ra), fr.read(d.rb))
	fr.poisoned[d.dst] = fr.poisonIn(d.ra) || fr.poisonIn(d.rb)
	return ctlNext
}

func opAluRIDirect(c *Core, d *dop) ctl {
	fr := &c.fr
	fr.regs[d.dst] = d.sem(fr.read(d.ra), uint64(d.imm))
	fr.poisoned[d.dst] = fr.poisonIn(d.ra)
	return ctlNext
}

// add and addi, the most frequent ALU ops of a Figure 4 sweep, also do
// their arithmetic inline, so they make no second indirect call through
// d.sem.

func opAddDirect(c *Core, d *dop) ctl {
	fr := &c.fr
	fr.regs[d.dst] = fr.read(d.ra) + fr.read(d.rb)
	fr.poisoned[d.dst] = fr.poisonIn(d.ra) || fr.poisonIn(d.rb)
	return ctlNext
}

func opAddIDirect(c *Core, d *dop) ctl {
	fr := &c.fr
	fr.regs[d.dst] = fr.read(d.ra) + uint64(d.imm)
	fr.poisoned[d.dst] = fr.poisonIn(d.ra)
	return ctlNext
}

func opMovIDirect(c *Core, d *dop) ctl {
	c.fr.regs[d.dst], c.fr.poisoned[d.dst] = uint64(d.imm), false
	return ctlNext
}

func opCommitDirect(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
	}
	fr.regs[d.dst], fr.poisoned[d.dst] = fr.read(d.ra), false
	return ctlNext
}

func opAluRR(c *Core, d *dop) ctl {
	fr := &c.fr
	p := fr.poisonIn(d.ra) || fr.poisonIn(d.rb)
	return c.push(d, d.sem(fr.read(d.ra), fr.read(d.rb)), p)
}

func opAluRI(c *Core, d *dop) ctl {
	fr := &c.fr
	return c.push(d, d.sem(fr.read(d.ra), uint64(d.imm)), fr.poisonIn(d.ra))
}

func opMovI(c *Core, d *dop) ctl {
	return c.push(d, uint64(d.imm), false)
}

func opLoad(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
	}
	addr := fr.read(d.ra) + uint64(d.imm)
	v, lat, err := fr.b.Load(addr, int(d.siz))
	if err != nil {
		return c.fail(err, fr.pc(d))
	}
	if lat > fr.hitLat {
		*fr.cycles += lat - fr.hitLat // stall-on-miss
	}
	return c.push(d, d.sem(v, 0), false)
}

// specAccess is the memory side of a dismissable load, issued or
// replayed: a poisoned base squashes it before any access, and so does
// a faulting address; otherwise it fills the cache, stalls on a miss
// and tells the ground-truth observer. A squashed load reads 0.
func (c *Core) specAccess(d *dop) (val, addr uint64, squashed bool) {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return 0, 0, true
	}
	addr = fr.read(d.ra) + uint64(d.imm)
	v, lat, ok := fr.b.LoadSpeculative(addr, int(d.siz))
	if !ok {
		return 0, addr, true
	}
	if lat > fr.hitLat {
		*fr.cycles += lat - fr.hitLat
	}
	if fr.b.OnSpecLoad != nil {
		// The ground-truth observer: this cache fill happened under
		// speculation (see bus.OnSpecLoad).
		fr.b.OnSpecLoad(fr.pc(d), addr, *fr.cycles)
	}
	return d.sem(v, 0), addr, false
}

// specLoad is the shared body of KLoadD/KLoadS: dismissable semantics,
// poison on squash, spec-level statistics and tracing.
func specLoad(c *Core, d *dop, mcb bool) ctl {
	fr := &c.fr
	c.Stats.SpecLoads++
	val, addr, squashed := c.specAccess(d)
	if squashed {
		c.Stats.SpecSquash++
	}
	if c.Tracer.SpecOn() {
		pc := fr.pc(d)
		c.Tracer.Emit(obs.Event{Kind: obs.EvSpecLoad, Cycle: *fr.cycles, PC: pc, Arg1: addr})
		if squashed {
			c.Tracer.Emit(obs.Event{Kind: obs.EvSpecSquash, Cycle: *fr.cycles, PC: pc, Arg1: addr})
		}
	}
	if mcb {
		if err := c.MCB.Insert(d.tag, addr, int(d.siz), squashed); err != nil {
			return c.fail(err, fr.pc(d))
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

// A replayed ldd or lds (recovery code) is still ahead of its own chk,
// so it stays dismissable, but it is no new speculation: Stats and the
// tracer do not see it. A replayed lds re-arms its tag at the corrected
// address, so its own chk still validates.

func opReplayLoadD(c *Core, d *dop) ctl {
	val, _, squashed := c.specAccess(d)
	return c.push(d, val, squashed)
}

func opReplayLoadS(c *Core, d *dop) ctl {
	val, addr, squashed := c.specAccess(d)
	if _, _, err := c.MCB.Consume(d.tag); err != nil {
		return c.fail(err, c.fr.pc(d))
	}
	if err := c.MCB.Insert(d.tag, addr, int(d.siz), squashed); err != nil {
		return c.fail(err, c.fr.pc(d))
	}
	return c.push(d, val, squashed)
}

func opStore(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) || fr.poisonIn(d.rb) {
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
	}
	addr := fr.read(d.ra) + uint64(d.imm)
	lat, err := fr.b.Store(addr, int(d.siz), fr.read(d.rb))
	if err != nil {
		return c.fail(err, fr.pc(d))
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
		return c.fail(err, fr.pc(d))
	}
	if c.Tracer.SpecOn() {
		c.Tracer.Emit(obs.Event{Kind: obs.EvCounter, Cycle: *fr.cycles,
			Arg1: uint64(c.MCB.Outstanding()), Str: obs.CtrMCBOccupancy})
	}
	if faulted {
		// The speculative load faults at its original
		// program position (exception no longer deferred).
		return c.fail(trap.Newf(trap.DeferredFault, "speculative load fault delivered at chk"), fr.pc(d))
	}
	if conflict {
		c.scr.recov = append(c.scr.recov, d)
	}
	return ctlNext
}

func opBrExit(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) || fr.poisonIn(d.rb) {
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
	}
	if d.sem(fr.read(d.ra), fr.read(d.rb)) != 0 {
		fr.exitTaken = true
		fr.exitTo = uint64(d.imm)
		fr.exitPC = fr.pc(d)
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
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
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
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
	}
	fr.b.FlushLine(fr.read(d.ra))
	return ctlNext
}

func opCommit(c *Core, d *dop) ctl {
	fr := &c.fr
	if fr.poisonIn(d.ra) {
		return c.fail(errPoisonUse(fr.syl(d)), fr.pc(d))
	}
	return c.push(d, fr.read(d.ra), false)
}

func opBadKind(c *Core, d *dop) ctl {
	pc := c.fr.pc(d)
	return c.fail(errInternal(pc, "vliw: unknown syllable kind %d", c.fr.syl(d).Kind), pc)
}

func opRecoveryBadKind(c *Core, d *dop) ctl {
	pc := c.fr.pc(d)
	return c.fail(errInternal(pc, "vliw: kind %s not allowed in recovery code", c.fr.syl(d).Kind), pc)
}

// finishBundle runs the bundle's write phase (the staged writes named
// by the terminator's mask; direct writes have already landed), any MCB
// recoveries detected in check order, and the exit decision. A recovery
// costs the fixed penalty, then one cycle per op, and its ops run in
// order, each one's write landing before the next reads.
func (c *Core) finishBundle(term *dop) ctl {
	fr := &c.fr
	scr := &c.scr

	for m := uint64(term.imm); m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		fr.regs[r] = scr.val[r]
		fr.poisoned[r] = scr.poison[r]
	}

	blk := fr.blk
	recov := scr.recov
	scr.recov = recov[:0]
	for _, chk := range recov {
		if chk.imm < 0 {
			return c.fail(errInternal(0, "vliw: recovery %d out of range", fr.syl(chk).Rec), 0)
		}
		c.Stats.Recoveries++
		*fr.cycles += c.Cfg.RecoveryPenalty
		seq := fr.ops[chk.imm>>32:][:uint32(chk.imm)]
		if c.Tracer.SpecOn() {
			var rpc uint64
			if len(seq) > 0 {
				rpc = fr.pc(&seq[0])
			}
			c.Tracer.Emit(obs.Event{Kind: obs.EvRecovery, Cycle: *fr.cycles, PC: rpc, Arg1: uint64(fr.syl(chk).Rec)})
		}
		for i := range seq {
			*fr.cycles++
			if d := &seq[i]; d.fn(c, d) != ctlNext {
				return ctlStop
			}
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
// next one (cycle and bundle count).
func opEndBundle(c *Core, d *dop) ctl {
	if r := c.finishBundle(d); r != ctlNext {
		return r
	}
	*c.fr.cycles++
	c.Stats.Bundles++
	return ctlNext
}

// opEndBundlePlain terminates a non-final bundle that has nothing to
// finish: its staged mask is 0 and it holds no chk, br.exit, jump or
// jumpr. Those four kinds are the only ones that append to scr.recov or
// set exitTaken or haveNext, and all three are clear when the bundle
// starts (Exec clears them on entry; finishBundle empties the recovery
// list and stops the block once an exit is decided). finishBundle would
// commit nothing, run no recovery and take no exit.
func opEndBundlePlain(c *Core, d *dop) ctl {
	*c.fr.cycles++
	c.Stats.Bundles++
	return ctlNext
}

// opEndBlock terminates the final bundle: finish it, then fall through
// to the block's FallPC.
func opEndBlock(c *Core, d *dop) ctl {
	if r := c.finishBundle(d); r != ctlNext {
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

// dopCount is how many ops blk's threaded-dispatch table holds.
func dopCount(blk *Block) int {
	return bundleOps(blk) + len(blk.Syls) - blk.bundleSyls()
}

// bundleOps is how many ops of blk's table belong to its bundles: one
// per non-nop syllable and one terminator per bundle.
func bundleOps(blk *Block) int {
	nb := len(blk.Slots)
	for _, sy := range blk.Syls[:blk.bundleSyls()] {
		if sy.Kind != KNop {
			nb++
		}
	}
	return nb
}

// buildDecoded flattens a block into its threaded-dispatch table in
// ops, which has room for dopCount(blk) of them: one op per non-nop
// bundle syllable plus one terminator per bundle, then one op per
// recovery syllable, with each bundle's write schedule fixed.
func buildDecoded(blk *Block, ops []dop) []dop {
	syls := blk.Syls
	nbs := blk.bundleSyls()
	nb := bundleOps(blk)
	for bi, s := range blk.Slots {
		first := len(ops)
		for i := int(s.Start); i < int(s.Start)+bits.OnesCount16(s.Mask); i++ {
			if syls[i].Kind == KNop {
				continue
			}
			d := newDop(syls, i)
			if syls[i].Kind == KChk {
				d.imm = recoveryRange(blk, nb, syls[i].Rec)
			}
			ops = append(ops, d)
		}
		staged := writeSchedule(ops[first:], syls)
		term := dop{fn: opEndBundle, imm: int64(staged)}
		switch {
		case bi == len(blk.Slots)-1:
			term.fn = opEndBlock
		case staged == 0 && plainBundle(ops[first:], syls):
			term.fn = opEndBundlePlain
		}
		for i := first; i < len(ops); i++ {
			specialise(&ops[i], syls)
		}
		ops = append(ops, term)
	}
	// Recovery code runs sequentially: each op is a bundle of its own,
	// so every write is direct. Nops stay, since each op costs a cycle.
	for i := nbs; i < len(syls); i++ {
		ops = append(ops, newDop(syls, i))
		d := &ops[len(ops)-1]
		switch syls[i].Kind {
		case KAluRR, KAluRI, KMovI, KLoad, KCommit:
		case KLoadD:
			d.fn = opReplayLoadD
		case KLoadS:
			d.fn = opReplayLoadS
		default:
			d.fn = opRecoveryBadKind
		}
		writeSchedule(ops[len(ops)-1:], syls)
		specialise(d, syls)
	}
	return ops
}

// newDop predecodes syllable i of syls: its operands, its semantic
// function and its generic handler.
func newDop(syls []Syllable, i int) dop {
	sy := &syls[i]
	d := dop{
		sy: uint16(i), imm: sy.Imm,
		dst: sy.Dst, ra: sy.Ra, rb: sy.Rb, tag: sy.Tag,
	}
	switch sy.Kind {
	case KAluRR:
		d.fn, d.sem = opAluRR, aluFunc(sy.Op)
	case KAluRI:
		d.fn, d.sem = opAluRI, aluImmFunc(sy.Op)
	case KMovI:
		d.fn = opMovI
	case KLoad:
		d.fn, d.siz, d.sem = opLoad, uint8(sy.Op.MemSize()), extendFunc(sy.Op)
	case KLoadD:
		d.fn, d.siz, d.sem = opLoadD, uint8(sy.Op.MemSize()), extendFunc(sy.Op)
	case KLoadS:
		d.fn, d.siz, d.sem = opLoadS, uint8(sy.Op.MemSize()), extendFunc(sy.Op)
	case KStore:
		d.fn, d.siz = opStore, uint8(sy.Op.MemSize())
	case KChk:
		d.fn = opChk
	case KBrExit:
		d.fn, d.sem = opBrExit, branchFunc(sy.Op)
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
	return d
}

// recoveryRange is what a chk's imm holds: where recovery rec's ops sit
// in a table whose bundle part holds nb ops, as the first index in the
// high 32 bits and the count in the low 32, or -1 when the block has no
// recovery rec (a conflict on that chk is an internal error).
func recoveryRange(blk *Block, nb int, rec int16) int64 {
	if rec < 0 || int(rec) >= len(blk.RecStart) {
		return -1
	}
	lo := nb + int(blk.RecStart[rec]-blk.RecStart[0])
	return int64(lo)<<32 | int64(len(blk.Recovery(int(rec))))
}

// writeSchedule sets the write mode of every writing dop of one bundle
// and returns the mask of staged registers its terminator commits.
//
// The first write of a register is direct when nothing later in the
// bundle could observe it early: no later dop reads the register or can
// fault (a faulting bundle commits none of its writes, so a register
// written in place before the fault would be visible). Otherwise it is
// staged. A second write of the same register is a double write: the op
// does its own work, then faults — so a later write of a register also
// stages the first. Writes to r0 are discarded.
func writeSchedule(ops []dop, syls []Syllable) (staged uint64) {
	var written uint64
	for i := range ops {
		d := &ops[i]
		if d.dst == 0 || !writesDst(syls[d.sy].Kind) {
			continue
		}
		if bit := uint64(1) << d.dst; written&bit != 0 {
			d.wm = wmDouble
		} else {
			written |= bit
			d.wm = wmDirect
		}
	}
	var readLater uint64
	faultLater := false
	for i := len(ops) - 1; i >= 0; i-- {
		d := &ops[i]
		if bit := uint64(1) << d.dst; d.wm == wmDirect && (faultLater || readLater&bit != 0) {
			d.wm = wmStaged
			staged |= bit
		}
		readLater |= 1<<d.ra | 1<<d.rb
		faultLater = faultLater || d.wm == wmDouble || canFault(&syls[d.sy])
	}
	return staged
}

// specialise gives a direct write its in-place handler, and add and
// addi their inline one. Staged and double writes, and writes to r0,
// keep the generic handler and push.
func specialise(d *dop, syls []Syllable) {
	if d.wm != wmDirect {
		return
	}
	switch sy := &syls[d.sy]; sy.Kind {
	case KAluRR:
		d.fn = opAluRRDirect
		if sy.Op == riscv.ADD {
			d.fn = opAddDirect
		}
	case KAluRI:
		d.fn = opAluRIDirect
		if sy.Op == riscv.ADDI {
			d.fn = opAddIDirect
		}
	case KMovI:
		d.fn = opMovIDirect
	case KCommit:
		d.fn = opCommitDirect
	}
}

// plainBundle reports whether a bundle holds none of the kinds that
// leave work for its terminator besides the staged commit.
func plainBundle(ops []dop, syls []Syllable) bool {
	for i := range ops {
		switch syls[ops[i].sy].Kind {
		case KChk, KBrExit, KJump, KJumpR:
			return false
		}
	}
	return true
}

// writesDst reports whether a syllable kind writes its Dst register.
func writesDst(k Kind) bool {
	switch k {
	case KAluRR, KAluRI, KMovI, KLoad, KLoadD, KLoadS, KCsr, KCommit:
		return true
	}
	return false
}

// canFault reports whether a syllable's handler can stop the block with
// a fault (poisoned operand, memory fault, MCB error, unknown kind).
func canFault(sy *Syllable) bool {
	switch sy.Kind {
	case KAluRR, KAluRI, KMovI, KLoadD, KJump, KCsr:
		return false
	case KFlush:
		return sy.Op != riscv.CFLUSHALL
	}
	return true
}

// Pre-resolved semantic functions. Named package-level functions cover
// the common operations; rare or unknown operations fall back to the
// generic evaluator, through closures built once per riscv.Op so that
// predecoding allocates nothing, and the semantics (including the zero
// result for unknown ops) stay those of riscv.EvalALU/EvalALUImm.

var aluEval, aluImmEval [256]func(a, b uint64) uint64

func init() {
	for i := range aluEval {
		op := riscv.Op(i)
		aluEval[i] = func(a, b uint64) uint64 { return riscv.EvalALU(op, a, b) }
		aluImmEval[i] = func(a, b uint64) uint64 { return riscv.EvalALUImm(op, a, int64(b)) }
	}
}

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
	return aluEval[op]
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
	return aluImmEval[op]
}

func extIdent(v, _ uint64) uint64 { return v }
func extB(v, _ uint64) uint64     { return uint64(int64(int8(v))) }
func extH(v, _ uint64) uint64     { return uint64(int64(int16(v))) }
func extW(v, _ uint64) uint64     { return uint64(int64(int32(v))) }

// extendFunc resolves a load op's sign/zero extension of a (b unused).
func extendFunc(op riscv.Op) func(v, _ uint64) uint64 {
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
	return func(v, _ uint64) uint64 { return riscv.ExtendLoad(op, v) }
}

func brEq(a, b uint64) uint64    { return b2u(a == b) }
func brNe(a, b uint64) uint64    { return b2u(a != b) }
func brLt(a, b uint64) uint64    { return b2u(int64(a) < int64(b)) }
func brGe(a, b uint64) uint64    { return b2u(int64(a) >= int64(b)) }
func brLtu(a, b uint64) uint64   { return b2u(a < b) }
func brGeu(a, b uint64) uint64   { return b2u(a >= b) }
func brNever(a, b uint64) uint64 { return 0 }

func b2u(t bool) uint64 {
	if t {
		return 1
	}
	return 0
}

// branchFunc resolves a side-exit condition: 1 if taken.
func branchFunc(op riscv.Op) func(a, b uint64) uint64 {
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
