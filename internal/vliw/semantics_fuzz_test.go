package vliw

import (
	"fmt"
	"testing"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// refMachine is a test-only two-phase bundle interpreter: the core's
// semantics before dispatch was threaded and the write phase was
// scheduled at predecode. Every syllable of a bundle reads the
// pre-bundle register file, its results are queued, and the queue lands
// only when the whole bundle got through; a fault discards it. MCB
// conflicts replay their recovery sequence after the bundle's writes,
// one syllable per cycle, each result landing before the next syllable
// reads (DESIGN §4, "Memory speculation"). It shares only the MCB with
// the core, and it knows every kind FuzzExecBundleSemantics generates.
type refMachine struct {
	cfg      Config
	regs     [NumRegs]uint64
	poisoned [NumRegs]bool
	cycles   uint64
	stats    Stats
	instret  uint64
	mcb      MCB
	b        *bus.Bus
}

type refWrite struct {
	reg    uint8
	val    uint64
	poison bool
}

func (m *refMachine) read(r uint8) uint64 {
	if r == 0 {
		return 0
	}
	return m.regs[r]
}

func (m *refMachine) poisonIn(r uint8) bool { return r != 0 && m.poisoned[r] }

func refFault(err error, pc uint64) ExitInfo {
	f := trap.From(err)
	if f.PC == 0 {
		f.PC = pc
	}
	return ExitInfo{Fault: f, FaultPC: pc}
}

// exec runs one block. Every fault drains the MCB, as a fault does on
// the core.
func (m *refMachine) exec(blk *testBlock) ExitInfo {
	ei := m.run(blk)
	if ei.Fault != nil {
		m.mcb.Reset()
	}
	return ei
}

func (m *refMachine) stall(lat uint64) {
	if hit := m.b.DC.HitLatency(); lat > hit {
		m.cycles += lat - hit
	}
}

// specLoad is the memory side of ldd and lds: a poisoned base or a
// faulting access squashes the load (no fill, no stall), and the
// result is poisoned with it.
func (m *refMachine) specLoad(sy *Syllable) (val, addr uint64, squashed bool) {
	if m.poisonIn(sy.Ra) {
		return 0, 0, true
	}
	addr = m.read(sy.Ra) + uint64(sy.Imm)
	v, lat, ok := m.b.LoadSpeculative(addr, sy.Op.MemSize())
	if !ok {
		return 0, addr, true
	}
	m.stall(lat)
	return riscv.ExtendLoad(sy.Op, v), addr, false
}

func (m *refMachine) run(blk *testBlock) ExitInfo {
	m.poisoned = [NumRegs]bool{}
	if len(blk.Bundles) == 0 {
		m.cycles++ // the dispatch of any block costs a cycle
		if n := m.mcb.Outstanding(); n != 0 {
			return refFault(errInternal(0, "vliw: %d MCB entries outstanding at block fallthrough", n), 0)
		}
		m.instret += uint64(blk.GuestInsts)
		return ExitInfo{NextPC: blk.FallPC}
	}
	for _, bundle := range blk.Bundles {
		m.cycles++
		m.stats.Bundles++
		var writes []refWrite
		var written [NumRegs]bool
		var recov []int16
		exitTaken, haveNext := false, false
		var exitTo, nextPC uint64
		for i := range bundle {
			sy := &bundle[i]
			pc := sy.GuestPC
			write := func(v uint64, p bool) *ExitInfo {
				if sy.Dst == 0 {
					return nil
				}
				if written[sy.Dst] {
					ei := refFault(errInternal(pc, "vliw: double write of r%d in one bundle", sy.Dst), pc)
					return &ei
				}
				written[sy.Dst] = true
				writes = append(writes, refWrite{sy.Dst, v, p})
				return nil
			}
			var ei *ExitInfo
			switch sy.Kind {
			case KNop:
			case KAluRR:
				ei = write(riscv.EvalALU(sy.Op, m.read(sy.Ra), m.read(sy.Rb)), m.poisonIn(sy.Ra) || m.poisonIn(sy.Rb))
			case KAluRI:
				ei = write(riscv.EvalALUImm(sy.Op, m.read(sy.Ra), sy.Imm), m.poisonIn(sy.Ra))
			case KMovI:
				ei = write(uint64(sy.Imm), false)
			case KLoad:
				if m.poisonIn(sy.Ra) {
					return refFault(errPoisonUse(sy), pc)
				}
				v, lat, err := m.b.Load(m.read(sy.Ra)+uint64(sy.Imm), sy.Op.MemSize())
				if err != nil {
					return refFault(err, pc)
				}
				m.stall(lat)
				ei = write(riscv.ExtendLoad(sy.Op, v), false)
			case KLoadD, KLoadS:
				m.stats.SpecLoads++
				val, addr, squashed := m.specLoad(sy)
				if squashed {
					m.stats.SpecSquash++
				}
				if sy.Kind == KLoadS {
					if err := m.mcb.Insert(sy.Tag, addr, sy.Op.MemSize(), squashed); err != nil {
						return refFault(err, pc)
					}
				}
				ei = write(val, squashed)
			case KStore:
				if m.poisonIn(sy.Ra) || m.poisonIn(sy.Rb) {
					return refFault(errPoisonUse(sy), pc)
				}
				addr := m.read(sy.Ra) + uint64(sy.Imm)
				lat, err := m.b.Store(addr, sy.Op.MemSize(), m.read(sy.Rb))
				if err != nil {
					return refFault(err, pc)
				}
				m.stall(lat)
				m.mcb.StoreCheck(addr, sy.Op.MemSize())
			case KChk:
				conflict, faulted, err := m.mcb.Consume(sy.Tag)
				if err != nil {
					return refFault(err, pc)
				}
				if faulted {
					return refFault(trap.Newf(trap.DeferredFault, "speculative load fault delivered at chk"), pc)
				}
				if conflict {
					recov = append(recov, sy.Rec)
				}
			case KCommit:
				if m.poisonIn(sy.Ra) {
					return refFault(errPoisonUse(sy), pc)
				}
				ei = write(m.read(sy.Ra), false)
			case KBrExit:
				if m.poisonIn(sy.Ra) || m.poisonIn(sy.Rb) {
					return refFault(errPoisonUse(sy), pc)
				}
				if riscv.EvalBranch(sy.Op, m.read(sy.Ra), m.read(sy.Rb)) {
					exitTaken, exitTo = true, uint64(sy.Imm)
				}
			case KJump:
				haveNext, nextPC = true, uint64(sy.Imm)
			case KJumpR:
				if m.poisonIn(sy.Ra) {
					return refFault(errPoisonUse(sy), pc)
				}
				haveNext, nextPC = true, m.read(sy.Ra)+uint64(sy.Imm)
			case KCsr:
				var v uint64
				switch sy.Imm {
				case riscv.CSRCycle, riscv.CSRTime:
					v = m.cycles
				case riscv.CSRInstret:
					v = m.instret
				}
				ei = write(v, false)
			case KFlush:
				if sy.Op == riscv.CFLUSHALL {
					m.b.FlushAll()
					break
				}
				if m.poisonIn(sy.Ra) {
					return refFault(errPoisonUse(sy), pc)
				}
				m.b.FlushLine(m.read(sy.Ra))
			default:
				panic(fmt.Sprintf("reference interpreter: kind %s not generated", sy.Kind))
			}
			if ei != nil {
				return *ei
			}
		}
		for _, w := range writes {
			m.regs[w.reg] = w.val
			m.poisoned[w.reg] = w.poison
		}
		for _, rec := range recov {
			if ei := m.replay(blk, rec); ei != nil {
				return *ei
			}
		}
		if exitTaken {
			m.cycles += m.cfg.ExitPenalty
			m.stats.SideExits++
			m.mcb.Reset()
			m.instret += uint64(blk.GuestInsts)
			return ExitInfo{NextPC: exitTo, SideExit: true}
		}
		if haveNext {
			if n := m.mcb.Outstanding(); n != 0 {
				return refFault(errInternal(0, "vliw: %d MCB entries outstanding at block exit", n), 0)
			}
			m.instret += uint64(blk.GuestInsts)
			return ExitInfo{NextPC: nextPC}
		}
	}
	if n := m.mcb.Outstanding(); n != 0 {
		return refFault(errInternal(0, "vliw: %d MCB entries outstanding at block fallthrough", n), 0)
	}
	m.instret += uint64(blk.GuestInsts)
	return ExitInfo{NextPC: blk.FallPC}
}

// replay runs recovery rec after an MCB conflict: the fixed penalty,
// then one cycle per syllable, in order, with architectural semantics.
// Each result lands before the next syllable reads. A replayed ldd or
// lds stays dismissable and is no new speculation (no Stats); a
// replayed lds re-arms its tag at the corrected address.
func (m *refMachine) replay(blk *testBlock, rec int16) *ExitInfo {
	if rec < 0 || int(rec) >= len(blk.Recoveries) {
		ei := refFault(errInternal(0, "vliw: recovery %d out of range", rec), 0)
		return &ei
	}
	m.stats.Recoveries++
	m.cycles += m.cfg.RecoveryPenalty
	seq := blk.Recoveries[rec]
	for i := range seq {
		sy := &seq[i]
		m.cycles++
		fail := func(err error) *ExitInfo {
			ei := refFault(err, sy.GuestPC)
			return &ei
		}
		write := func(v uint64, p bool) {
			if sy.Dst != 0 {
				m.regs[sy.Dst], m.poisoned[sy.Dst] = v, p
			}
		}
		switch sy.Kind {
		case KAluRR:
			write(riscv.EvalALU(sy.Op, m.read(sy.Ra), m.read(sy.Rb)), m.poisonIn(sy.Ra) || m.poisonIn(sy.Rb))
		case KAluRI:
			write(riscv.EvalALUImm(sy.Op, m.read(sy.Ra), sy.Imm), m.poisonIn(sy.Ra))
		case KMovI:
			write(uint64(sy.Imm), false)
		case KCommit:
			if m.poisonIn(sy.Ra) {
				return fail(errPoisonUse(sy))
			}
			write(m.read(sy.Ra), false)
		case KLoad:
			if m.poisonIn(sy.Ra) {
				return fail(errPoisonUse(sy))
			}
			v, lat, err := m.b.Load(m.read(sy.Ra)+uint64(sy.Imm), sy.Op.MemSize())
			if err != nil {
				return fail(err)
			}
			m.stall(lat)
			write(riscv.ExtendLoad(sy.Op, v), false)
		case KLoadD, KLoadS:
			val, addr, squashed := m.specLoad(sy)
			if sy.Kind == KLoadS {
				if _, _, err := m.mcb.Consume(sy.Tag); err != nil {
					return fail(err)
				}
				if err := m.mcb.Insert(sy.Tag, addr, sy.Op.MemSize(), squashed); err != nil {
					return fail(err)
				}
			}
			write(val, squashed)
		default:
			return fail(errInternal(sy.GuestPC, "vliw: kind %s not allowed in recovery code", sy.Kind))
		}
	}
	return nil
}

// fuzzData is where the fuzzed blocks' memory operations land: a small
// window of words holding pointers back into the window, so loaded
// values are usable addresses as often as not.
const (
	fuzzData  = 0x20000
	fuzzWords = 8
)

// fuzzRegs is the small register pool the generated syllables share, so
// read-after-write, write-after-write and poison hazards are common.
var fuzzRegs = [...]uint8{0, 1, 2, 3, 5, 6, 40, 41}

// Flags of a fuzzed syllable's kind byte beyond the kind tables.
const (
	// fuzzMCB turns ldd into lds and br.exit into chk. The tag is bit 2
	// of the op byte. A chk names recovery (op bit 3), or recovery 2,
	// which does not exist, when the op byte's high nibble is 0xF.
	fuzzMCB = 0x20
	// fuzzRecovery appends the syllable to recovery sequence (op bit 7)
	// instead of the current bundle.
	fuzzRecovery = 0x40
)

// fuzzBlock turns fuzz bytes into a block of up to 8 bundles and two
// recovery sequences. Each syllable takes four bytes: kind, bundle
// break and flags, registers, an immediate selector and an operation
// selector. Bit 4 of the kind byte selects the second kind table
// (jump, jumpr, csr, cflush).
func fuzzBlock(cfg Config, data []byte) *testBlock {
	blk := &testBlock{EntryPC: 0x100, FallPC: 0x200}
	var cur []Syllable
	var recs [2][]Syllable
	flush := func() {
		if len(cur) > 0 {
			blk.Bundles = append(blk.Bundles, pad(cfg, cur...))
			cur = nil
		}
	}
	pc := uint64(0x100)
	for len(data) >= 4 && len(blk.Bundles) < 8 {
		k, r, im, op := data[0], data[1], data[2], data[3]
		data = data[4:]
		sy := Syllable{
			Dst:     fuzzRegs[r&7],
			Ra:      fuzzRegs[(r>>3)&7],
			Rb:      fuzzRegs[(r>>6)|(k>>5)&4],
			GuestPC: pc,
		}
		pc += 4
		// Offsets mostly stay inside the data window; every eighth
		// leaves guest memory, so architectural loads and stores fault.
		off := int64(im&7) * 8
		if im&0x38 == 0x38 {
			off = -fuzzData
		}
		switch k & 0x17 {
		case 0:
			sy.Kind = KAluRR
			sy.Op = [...]riscv.Op{riscv.ADD, riscv.SUB, riscv.XOR, riscv.SLTU, riscv.MUL, riscv.AND, riscv.OR, riscv.ADDW}[op&7]
		case 1:
			sy.Kind, sy.Imm = KAluRI, int64(int8(im))
			sy.Op = [...]riscv.Op{riscv.ADDI, riscv.XORI, riscv.ANDI, riscv.SLLI}[op&3]
		case 2:
			// Usually a pointer into the data window; sometimes an
			// unmapped address or a small integer.
			sy.Kind, sy.Imm = KMovI, fuzzData+off
			if op&3 == 0 {
				sy.Imm = int64(im)
			}
		case 3:
			sy.Kind, sy.Imm = KLoad, off
			sy.Op = [...]riscv.Op{riscv.LD, riscv.LW, riscv.LBU, riscv.LH}[op&3]
		case 4:
			sy.Kind, sy.Imm = KLoadD, off
			sy.Op = [...]riscv.Op{riscv.LD, riscv.LW, riscv.LBU, riscv.LH}[op&3]
		case 5:
			sy.Kind, sy.Imm = KStore, off
			sy.Op = [...]riscv.Op{riscv.SD, riscv.SW, riscv.SB, riscv.SH}[op&3]
		case 6:
			sy.Kind = KCommit
		case 7:
			sy.Kind, sy.Imm = KBrExit, int64(0x300+int(op)*4)
			sy.Op = [...]riscv.Op{riscv.BEQ, riscv.BNE, riscv.BLTU, riscv.BGE}[op&3]
		case 0x10, 0x14:
			sy.Kind, sy.Imm = KJump, int64(0x400+int(op)*4)
		case 0x11, 0x15:
			sy.Kind, sy.Imm = KJumpR, off
		case 0x12, 0x16:
			// Cycle, instret, time, and a CSR the core reads as 0.
			sy.Kind, sy.Op = KCsr, riscv.CSRRS
			sy.Imm = [...]int64{riscv.CSRCycle, riscv.CSRInstret, riscv.CSRTime, 0x7c0}[op&3]
		case 0x13, 0x17:
			sy.Kind, sy.Op = KFlush, riscv.CFLUSH
			if op&1 != 0 {
				sy.Op = riscv.CFLUSHALL
			}
		}
		if k&fuzzMCB != 0 {
			switch sy.Kind {
			case KLoadD:
				sy.Kind, sy.Tag = KLoadS, op>>2&1
			case KBrExit:
				sy.Kind, sy.Op, sy.Imm, sy.Tag = KChk, 0, 0, op>>2&1
				sy.Rec = int16(op >> 3 & 1)
				if op>>4 == 0xF {
					sy.Rec = 2
				}
			}
		}
		if k&fuzzRecovery != 0 {
			recs[op>>7] = append(recs[op>>7], sy)
			continue
		}
		cur = append(cur, sy)
		if k&8 != 0 || len(cur) == cfg.Width() {
			flush()
		}
	}
	flush()
	blk.Recoveries = recs[:]
	blk.GuestInsts = int(pc-0x100) / 4
	return blk
}

// fuzzSyl encodes one syllable the way fuzzBlock decodes it: kind
// selector k (0–7 the first table, 8–11 the second, either with the
// fuzzMCB and fuzzRecovery flags), fuzzRegs indexes, immediate and op
// selectors, and whether the bundle ends after it.
func fuzzSyl(k, dst, ra, rb, im, op byte, end bool) []byte {
	k = k&7 | (k&8)<<1 | k&(fuzzMCB|fuzzRecovery) | rb>>2<<7
	if end {
		k |= 8
	}
	return []byte{k, dst | ra<<3 | (rb&3)<<6, im, op}
}

// fuzzBus is a bus over 128 KiB of guest memory at 0x10000, which
// covers the data window and keeps each fuzz iteration cheap.
func fuzzBus() *bus.Bus {
	return &bus.Bus{Mem: guestmem.New(0x10000, 0x20000), DC: cache.MustNew(cache.DefaultConfig())}
}

// FuzzExecBundleSemantics runs random blocks on Core.Exec and on the
// two-phase reference interpreter and requires the same registers,
// poison bits, MCB, cycles, Stats, Instret and exit — fault kind, PC and
// message included. Each block runs twice in a row on the same state, so
// a fault that abandons a bundle must leave nothing behind for the
// next run either. The MCB seeds (lds, store, chk and recovery
// sequences, with and without a conflict) are the files under
// testdata/fuzz/FuzzExecBundleSemantics, written with fuzzSyl.
func FuzzExecBundleSemantics(f *testing.F) {
	// Pool indexes: 1 = r1, 2 = r2, 3 = r3, 4 = r5, 5 = r6.
	seed := func(sylls ...[]byte) []byte {
		var data []byte
		for _, sy := range sylls {
			data = append(data, sy...)
		}
		return data
	}
	f.Add(seed()) // a block of no bundles
	f.Add(seed(   // a staged read after write, then a poisoned commit
		fuzzSyl(2, 1, 0, 0, 0, 1, false),   // movi r1, data
		fuzzSyl(0, 4, 1, 3, 0, 0, false),   // add r5, r1, r3
		fuzzSyl(3, 2, 4, 0, 1, 0, true),    // ld r2, 8(r5)
		fuzzSyl(4, 5, 1, 0, 0x38, 0, true), // ldd r6, -data(r1): squashed
		fuzzSyl(2, 2, 0, 0, 2, 1, false),   // movi r2, data+16
		fuzzSyl(6, 1, 5, 0, 0, 0, true)))   // commit r1, r6: poison fault
	f.Add(seed( // every specialised handler; plain bundle ends
		fuzzSyl(0, 4, 1, 2, 0, 0, false), // add r5, r1, r2
		fuzzSyl(0, 5, 1, 2, 0, 4, false), // mul r6, r1, r2
		fuzzSyl(0, 6, 1, 2, 0, 1, true),  // sub r40, r1, r2
		fuzzSyl(1, 4, 1, 0, 3, 0, false), // addi r5, r1, 3
		fuzzSyl(1, 5, 2, 0, 2, 3, false), // slli r6, r2, 2
		fuzzSyl(1, 6, 3, 0, 1, 1, false), // xori r40, r3, 1
		fuzzSyl(2, 7, 0, 0, 0, 1, true),  // movi r41, data
		fuzzSyl(6, 1, 5, 0, 0, 0, true),  // commit r1, r6
		fuzzSyl(3, 2, 7, 0, 1, 0, true))) // ld r2, 8(r41)
	f.Add(seed( // poison through the direct ALU handlers, via ra and rb
		fuzzSyl(4, 5, 1, 0, 0x38, 0, true), // ldd r6, -data(r1): squashed
		fuzzSyl(0, 4, 1, 5, 0, 0, false),   // add r5, r1, r6
		fuzzSyl(0, 6, 2, 5, 0, 4, false),   // mul r40, r2, r6
		fuzzSyl(0, 7, 5, 2, 0, 1, true),    // sub r41, r6, r2
		fuzzSyl(1, 1, 5, 0, 3, 0, false),   // addi r1, r6, 3
		fuzzSyl(1, 2, 5, 0, 2, 3, false),   // slli r2, r6, 2
		fuzzSyl(1, 3, 5, 0, 1, 1, true)))   // xori r3, r6, 1
	f.Add(seed( // a plain bundle, then a faulting one
		fuzzSyl(1, 4, 1, 0, 1, 0, true),     // addi r5, r1, 1
		fuzzSyl(0, 5, 4, 1, 0, 0, false),    // add r6, r5, r1: staged
		fuzzSyl(3, 2, 1, 0, 0x38, 0, true))) // ld r2, -data(r1): faults
	f.Add(seed( // csr and cflush, then a jump
		fuzzSyl(10, 4, 0, 0, 0, 0, false), // csr r5, cycle
		fuzzSyl(10, 5, 0, 0, 0, 1, false), // csr r6, instret
		fuzzSyl(11, 0, 1, 0, 0, 0, false), // cflush (r1)
		fuzzSyl(11, 0, 0, 0, 0, 1, true),  // cflush all
		fuzzSyl(3, 2, 1, 0, 0, 0, false),  // ld r2, 0(r1): a miss
		fuzzSyl(10, 6, 0, 0, 0, 0, false), // csr r40, cycle: after the stall
		fuzzSyl(8, 0, 0, 0, 0, 3, true)))  // jump 0x40c
	f.Add(seed( // jumpr, clean and on a poisoned register
		fuzzSyl(4, 5, 1, 0, 0x38, 0, false), // ldd r6, -data(r1): squashed
		fuzzSyl(9, 0, 1, 0, 2, 0, true),     // jumpr 16(r1)
		fuzzSyl(9, 0, 5, 0, 0, 0, true)))    // jumpr 0(r6): poison fault
	f.Add(seed( // a double write
		fuzzSyl(2, 1, 0, 0, 0, 0, false), // movi r1, 0
		fuzzSyl(5, 0, 2, 3, 2, 0, false), // sd r3, 16(r2)
		fuzzSyl(2, 1, 0, 0, 3, 0, true))) // movi r1, 3
	f.Add(seed( // results before a taken side exit commit
		fuzzSyl(0, 4, 1, 2, 0, 0, false), // add r5, r1, r2
		fuzzSyl(1, 1, 2, 0, 5, 0, false), // addi r1, r2, 5
		fuzzSyl(7, 0, 1, 2, 0, 1, true))) // bne r1, r2
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := fuzzBlock(cfg, data)
		blk := tb.pack()
		c := MustNewCore(cfg)
		ref := &refMachine{cfg: cfg, b: fuzzBus()}
		b := fuzzBus()
		var regs [NumRegs]uint64
		for r := 1; r < NumRegs; r++ {
			regs[r] = fuzzData + uint64(r%fuzzWords)*8
		}
		ref.regs = regs
		for i := uint64(0); i < fuzzWords; i++ {
			p := fuzzData + (i*3+1)%fuzzWords*8
			if err := b.Mem.Write(fuzzData+i*8, 8, p); err != nil {
				t.Fatal(err)
			}
			if err := ref.b.Mem.Write(fuzzData+i*8, 8, p); err != nil {
				t.Fatal(err)
			}
		}
		var cycles uint64
		for run := 0; run < 2; run++ {
			got := c.Exec(blk, &regs, b, &cycles)
			want := ref.exec(tb)
			where := fmt.Sprintf("run %d of\n%s", run, blk)
			if (got.Fault == nil) != (want.Fault == nil) {
				t.Fatalf("%s\nexit = %+v, reference %+v", where, got, want)
			}
			if got.Fault != nil {
				if got.Fault.Kind != want.Fault.Kind || got.Fault.PC != want.Fault.PC || got.Fault.Error() != want.Fault.Error() {
					t.Fatalf("%s\nfault = %v (pc %#x), reference %v (pc %#x)", where, got.Fault, got.Fault.PC, want.Fault, want.Fault.PC)
				}
				got.Fault, want.Fault = nil, nil
			}
			if got != want {
				t.Fatalf("%s\nexit = %+v, reference %+v", where, got, want)
			}
			if regs != ref.regs {
				t.Fatalf("%s\nregisters = %v\nreference %v", where, regs, ref.regs)
			}
			if c.fr.poisoned != ref.poisoned {
				t.Fatalf("%s\npoison = %v\nreference %v", where, c.fr.poisoned, ref.poisoned)
			}
			if c.MCB != ref.mcb {
				t.Fatalf("%s\nMCB = %+v\nreference %+v", where, c.MCB, ref.mcb)
			}
			if cycles != ref.cycles || c.Stats != ref.stats || c.Instret != ref.instret {
				t.Fatalf("%s\ncycles %d stats %+v instret %d, reference %d %+v %d",
					where, cycles, c.Stats, c.Instret, ref.cycles, ref.stats, ref.instret)
			}
		}
	})
}
