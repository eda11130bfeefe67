// Package dbt implements the Dynamic Binary Translation engine and the
// full DBT-based processor model: profiling-driven translation of RISC-V
// guest code into IR blocks, superblock/trace construction along biased
// branches, GhostBusters mitigation (internal/core) applied to each block
// before scheduling, list scheduling with speculative code motion onto
// the VLIW core, MCB recovery-code generation, and the machine dispatch
// loop that mixes interpretation of cold code with execution of
// translated regions.
package dbt

import (
	"fmt"

	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// fetcher reads guest instruction words (implemented by the machine bus).
type fetcher interface {
	Fetch(addr uint64) (uint32, error)
}

// branchOracle tells the trace builder which way a conditional branch is
// biased. Return (direction, true) to follow it, or (_, false) to end the
// trace at the branch (insufficient bias or no profile).
type branchOracle func(pc uint64) (taken bool, follow bool)

// translateLimits bound trace growth.
type translateLimits struct {
	MaxInsts  int // guest instructions per block
	MaxUnroll int // times the trace may pass through its entry (loop unrolling)
}

// errUntranslatable marks guest code the DBT engine leaves to the
// interpreter (blocks starting with ecall/ebreak or unfetchable code).
var errUntranslatable = fmt.Errorf("dbt: untranslatable block")

// invertBranch returns the branch op testing the opposite condition,
// or ok=false for a non-branch op (the caller treats that as an
// untranslatable region rather than crashing the host).
func invertBranch(op riscv.Op) (riscv.Op, bool) {
	switch op {
	case riscv.BEQ:
		return riscv.BNE, true
	case riscv.BNE:
		return riscv.BEQ, true
	case riscv.BLT:
		return riscv.BGE, true
	case riscv.BGE:
		return riscv.BLT, true
	case riscv.BLTU:
		return riscv.BGEU, true
	case riscv.BGEU:
		return riscv.BLTU, true
	}
	return op, false
}

// translate decodes guest code starting at entry into one IR block,
// built in bu after a Reset; visited is translate's scratch set of the
// PCs one pass has decoded. The block is bu's: it lives until bu's next
// Reset.
//
// With oracle == nil it builds a plain basic block: decoding stops at the
// first control transfer. With an oracle it builds a superblock/trace:
// biased conditional branches are normalised so that *taken means leaving
// the trace* (inverting the condition when the biased direction is the
// taken one) and decoding continues along the hot path, unrolling loops
// through the entry up to the limits.
func translate(bu *ir.Builder, visited map[uint64]struct{}, f fetcher, entry uint64, oracle branchOracle, lim translateLimits) (*ir.Block, int, error) {
	bu.Reset(entry)
	clear(visited)
	pc := entry
	guestInsts := 0
	entryVisits := 0

	endAt := func(next uint64) (*ir.Block, int, error) {
		if guestInsts == 0 {
			return nil, 0, errUntranslatable
		}
		bu.SetFallthrough(next, false)
		return bu.Block(), guestInsts, nil
	}

	for {
		if guestInsts >= lim.MaxInsts {
			return endAt(pc)
		}
		if pc == entry && guestInsts > 0 {
			entryVisits++
			if entryVisits >= lim.MaxUnroll {
				return endAt(pc)
			}
			// A fresh pass through the loop: body PCs may repeat.
			clear(visited)
		}
		// Revisiting any non-entry PC within a pass means an inner
		// cycle that does not go through the trace entry: stop.
		if _, seen := visited[pc]; seen && pc != entry {
			return endAt(pc)
		}
		visited[pc] = struct{}{}

		word, err := f.Fetch(pc)
		if err != nil {
			return endAt(pc)
		}
		in := riscv.Decode(word)

		switch {
		case in.Op == riscv.OpIllegal, in.Op == riscv.ECALL, in.Op == riscv.EBREAK:
			// Left to the interpreter.
			return endAt(pc)

		case in.Op.IsBranch():
			target := pc + uint64(in.Imm)
			fall := pc + 4
			op := in.Op
			exit := target
			next := fall
			if oracle != nil {
				if taken, follow := oracle(pc); follow {
					if taken {
						// Hot path is the taken side: invert so that the
						// in-trace direction is fall-through.
						inv, ok := invertBranch(op)
						if !ok {
							return nil, 0, fmt.Errorf("%w: cannot invert %s at %#x", errUntranslatable, op, pc)
						}
						op = inv
						exit = fall
						next = target
					}
					bu.Emit(ir.Inst{
						Op: op, A: bu.Reg(in.Rs1), B: bu.Reg(in.Rs2),
						DestArch: -1, PC: pc, BranchExit: exit,
					})
					guestInsts++
					pc = next
					continue
				}
			}
			// Basic-block mode (or weak bias): branch ends the block;
			// fall-through is the in-block direction.
			bu.Emit(ir.Inst{
				Op: op, A: bu.Reg(in.Rs1), B: bu.Reg(in.Rs2),
				DestArch: -1, PC: pc, BranchExit: exit,
			})
			guestInsts++
			return endAt(fall)

		case in.Op == riscv.JAL:
			target := pc + uint64(in.Imm)
			if in.Rd != 0 {
				// Call: materialise the link and end the block.
				bu.Emit(ir.Inst{Op: riscv.ADDI, Imm: int64(pc + 4), DestArch: int8(in.Rd), PC: pc})
				guestInsts++
				return endAt(target)
			}
			guestInsts++
			if oracle != nil {
				// Plain jump: the trace flows through it.
				pc = target
				continue
			}
			return endAt(target)

		case in.Op == riscv.JALR:
			base := bu.Reg(in.Rs1) // capture before the link clobbers rs1
			if in.Rd != 0 {
				bu.Emit(ir.Inst{Op: riscv.ADDI, Imm: int64(pc + 4), DestArch: int8(in.Rd), PC: pc})
			}
			bu.Emit(ir.Inst{Op: riscv.JALR, A: base, Imm: in.Imm, DestArch: -1, PC: pc})
			guestInsts++
			bu.SetFallthrough(0, true) // dynamic target via the JALR inst
			return bu.Block(), guestInsts, nil

		case in.Op.IsLoad():
			dest := int8(-1)
			if in.Rd != 0 {
				dest = int8(in.Rd)
			}
			bu.Emit(ir.Inst{Op: in.Op, A: bu.Reg(in.Rs1), Imm: in.Imm, DestArch: dest, PC: pc})
			guestInsts++
			pc += 4

		case in.Op.IsStore():
			bu.Emit(ir.Inst{Op: in.Op, A: bu.Reg(in.Rs1), B: bu.Reg(in.Rs2), Imm: in.Imm, DestArch: -1, PC: pc})
			guestInsts++
			pc += 4

		case in.Op == riscv.LUI:
			if in.Rd != 0 {
				bu.Emit(ir.Inst{Op: riscv.ADDI, Imm: in.Imm, DestArch: int8(in.Rd), PC: pc})
			}
			guestInsts++
			pc += 4

		case in.Op == riscv.AUIPC:
			if in.Rd != 0 {
				bu.Emit(ir.Inst{Op: riscv.ADDI, Imm: int64(pc) + in.Imm, DestArch: int8(in.Rd), PC: pc})
			}
			guestInsts++
			pc += 4

		case in.Op == riscv.FENCE:
			bu.Emit(ir.Inst{Op: riscv.FENCE, DestArch: -1, PC: pc})
			guestInsts++
			pc += 4

		case in.Op == riscv.CSRRW, in.Op == riscv.CSRRS, in.Op == riscv.CSRRC:
			dest := int8(-1)
			if in.Rd != 0 {
				dest = int8(in.Rd)
			}
			bu.Emit(ir.Inst{Op: in.Op, A: bu.Reg(in.Rs1), Imm: in.Imm, DestArch: dest, PC: pc})
			guestInsts++
			pc += 4

		case in.Op == riscv.CFLUSH:
			bu.Emit(ir.Inst{Op: riscv.CFLUSH, A: bu.Reg(in.Rs1), DestArch: -1, PC: pc})
			guestInsts++
			pc += 4
		case in.Op == riscv.CFLUSHALL:
			bu.Emit(ir.Inst{Op: riscv.CFLUSHALL, DestArch: -1, PC: pc})
			guestInsts++
			pc += 4

		default:
			// Register-register and register-immediate ALU.
			if in.Rd == 0 {
				guestInsts++ // architectural nop
				pc += 4
				continue
			}
			fk, _ := in.Op.Info()
			inst := ir.Inst{Op: in.Op, A: bu.Reg(in.Rs1), DestArch: int8(in.Rd), PC: pc}
			switch fk {
			case riscv.FmtR:
				inst.B = bu.Reg(in.Rs2)
			case riscv.FmtI, riscv.FmtShift64, riscv.FmtShift32:
				inst.Imm = in.Imm
			default:
				return nil, 0, fmt.Errorf("dbt: unexpected format for %s at %#x", in.Op, pc)
			}
			bu.Emit(inst)
			guestInsts++
			pc += 4
		}
	}
}
