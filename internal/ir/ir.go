// Package ir defines the intermediate representation of the DBT engine:
// one data-flow graph per translation block (basic block, superblock, or
// trace). Instructions reference their operands as either block-entry
// architectural registers or results of earlier instructions; ordering
// requirements that are not visible in the data flow (memory dependencies
// and control dependencies on side-exit branches) are explicit edges.
//
// An edge may be Relaxable: the instruction scheduler is allowed to break
// it and schedule the destination before the source, which is exactly the
// software speculation of a DBT-based processor — hoisting a load above a
// conditional branch (the paper's Spectre v1 vector) or above a store
// with an unprovably-disjoint address (the Spectre v4 vector). The
// GhostBusters countermeasure (internal/core) flips Relaxable edges back
// to hard edges where its poison analysis finds the Spectre pattern.
package ir

import (
	"fmt"
	"slices"

	"ghostbusters/internal/riscv"
)

// OperandKind says what an Operand refers to.
type OperandKind uint8

const (
	OpNone  OperandKind = iota // unused operand slot
	OpRegIn                    // architectural register value at block entry
	OpInst                     // result of an earlier instruction in the block
)

// Operand is a data-flow reference.
type Operand struct {
	Kind OperandKind
	Reg  uint8 // for OpRegIn: architectural register number
	Inst int   // for OpInst: producer instruction index
}

// RegIn returns an operand reading arch register r at block entry.
func RegIn(r uint8) Operand {
	if r == 0 {
		return Operand{} // x0 reads as the constant zero -> no dependency
	}
	return Operand{Kind: OpRegIn, Reg: r}
}

// FromInst returns an operand reading the result of instruction i.
func FromInst(i int) Operand { return Operand{Kind: OpInst, Inst: i} }

func (o Operand) String() string {
	switch o.Kind {
	case OpRegIn:
		return "in:" + riscv.RegName(o.Reg)
	case OpInst:
		return fmt.Sprintf("n%d", o.Inst)
	}
	return "-"
}

// TempDest marks a mitigation-inserted instruction whose result lives
// only in a hidden register: it is a value producer (other instructions
// may reference it as an operand) but defines no architectural register
// and is never committed. The guest ISA never produces TempDest, so a
// mitigation pass can use it as a reliable marker for its own inserted
// code (idempotence checks). TempDest instructions are exempt from the
// renaming invariant: they may read values superseded later in the
// block — the scheduler's anti-dependence edges order them before the
// redefinition.
const TempDest int8 = -2

// Inst is one IR instruction. The operation vocabulary is the guest ISA
// (the Hybrid-DBT IR stays close to RISC-V); the VLIW backend adds its
// own speculative opcodes at code generation.
type Inst struct {
	Op  riscv.Op
	A   Operand // rs1 / load-store address base
	B   Operand // rs2 / store data
	Imm int64   // immediate / address offset / CSR number

	// DestArch is the architectural register this instruction defines,
	// or -1 for instructions without a register result (stores,
	// branches, flushes) and for x0 destinations.
	DestArch int8

	// PC is the guest address this instruction was translated from.
	PC uint64

	// BranchExit is the guest address execution continues at when a
	// (normalised) side-exit branch is taken. Inside a trace every
	// conditional branch is normalised so that taken == leave the trace.
	BranchExit uint64
}

// IsLoad reports whether the instruction reads data memory.
func (in *Inst) IsLoad() bool { return in.Op.IsLoad() }

// IsStore reports whether the instruction writes data memory.
func (in *Inst) IsStore() bool { return in.Op.IsStore() }

// IsBranch reports whether the instruction is a conditional side exit.
func (in *Inst) IsBranch() bool { return in.Op.IsBranch() }

// IsBarrier reports whether the instruction must not be reordered with
// any memory operation or branch (cycle-CSR reads and cache flushes: both
// observe or mutate the micro-architectural state the side channel uses).
func (in *Inst) IsBarrier() bool {
	switch in.Op {
	case riscv.CSRRW, riscv.CSRRS, riscv.CSRRC, riscv.CFLUSH, riscv.CFLUSHALL, riscv.FENCE:
		return true
	}
	return false
}

// EdgeKind classifies an ordering edge.
type EdgeKind uint8

const (
	// EdgeMem orders two memory operations (store->load, load->store,
	// store->store) that may alias.
	EdgeMem EdgeKind = iota
	// EdgeCtrl orders an instruction after a side-exit branch.
	EdgeCtrl
	// EdgeGuard is a mitigation-inserted control dependency (the
	// paper's red dashed arrow in Fig. 3C). Never relaxable.
	EdgeGuard
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeMem:
		return "mem"
	case EdgeCtrl:
		return "ctrl"
	case EdgeGuard:
		return "guard"
	}
	return "?"
}

// Edge requires To to be scheduled strictly after From, unless Relaxable
// and the scheduler chooses to speculate across it.
type Edge struct {
	From, To  int
	Kind      EdgeKind
	Relaxable bool
}

// Block is one translation unit: straight-line instructions with side
// exits, plus the dependency edges between them.
type Block struct {
	EntryPC uint64
	Insts   []Inst
	Edges   []Edge

	// FallPC is the guest address execution continues at when the block
	// runs to completion (no side exit taken). Zero when the block ends
	// in an unconditional control transfer handled by the last Inst.
	FallPC uint64

	// TerminatorExit reports that the block ends with an unconditional
	// jump already folded into FallPC.
	TerminatorExit bool
}

// AddInst appends an instruction and returns its index.
func (b *Block) AddInst(in Inst) int {
	b.Insts = append(b.Insts, in)
	return len(b.Insts) - 1
}

// AddEdge appends an ordering edge.
func (b *Block) AddEdge(e Edge) {
	b.Edges = append(b.Edges, e)
}

// InsertInsts inserts insts immediately before instruction at,
// renumbering every operand and edge reference in the block. Operands
// of the inserted instructions may reference existing instructions by
// their pre-insertion index (only indices < at stay meaningful) or
// earlier inserted instructions by their final index (at+k). Existing
// references map as: i < at stays i, i >= at becomes i+len(insts).
func (b *Block) InsertInsts(at int, insts []Inst) {
	n := len(insts)
	if n == 0 {
		return
	}
	shift := func(i int) int {
		if i >= at {
			return i + n
		}
		return i
	}
	for i := at; i < len(b.Insts); i++ { // earlier insts only reference earlier indices
		in := &b.Insts[i]
		if in.A.Kind == OpInst {
			in.A.Inst = shift(in.A.Inst)
		}
		if in.B.Kind == OpInst {
			in.B.Inst = shift(in.B.Inst)
		}
	}
	for k := range b.Edges {
		b.Edges[k].From = shift(b.Edges[k].From)
		b.Edges[k].To = shift(b.Edges[k].To)
	}
	b.Insts = slices.Insert(b.Insts, at, insts...)
}

// HasRelaxableIn reports whether instruction i has at least one relaxable
// incoming edge — i.e. the scheduler could execute it speculatively.
func (b *Block) HasRelaxableIn(i int) bool {
	for _, e := range b.Edges {
		if e.To == i && e.Relaxable {
			return true
		}
	}
	return false
}

// PinAll makes every edge non-relaxable (the NoSpeculation baseline).
func (b *Block) PinAll() {
	for i := range b.Edges {
		b.Edges[i].Relaxable = false
	}
}

// PinFrom makes every edge leaving instruction g non-relaxable (fence
// semantics at guard g: nothing may be hoisted above it).
func (b *Block) PinFrom(g int) {
	for i := range b.Edges {
		if b.Edges[i].From == g {
			b.Edges[i].Relaxable = false
		}
	}
}

// PinInto makes every edge entering instruction i non-relaxable (the
// instruction can no longer be scheduled speculatively).
func (b *Block) PinInto(i int) {
	for k := range b.Edges {
		if b.Edges[k].To == i {
			b.Edges[k].Relaxable = false
		}
	}
}

// Verify checks structural invariants:
//   - operands only reference earlier instructions,
//   - RegIn operands only read registers not yet redefined in the block
//     (the renaming invariant Builder guarantees; the scheduler's
//     anti-dependence edges rely on it),
//   - edges go forward in program order,
//   - branch instructions carry an exit address,
//   - DestArch is consistent with the opcode.
func (b *Block) Verify() error {
	var defined [32]int
	for i := range defined {
		defined[i] = -1
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		for _, op := range [2]Operand{in.A, in.B} {
			if op.Kind == OpInst {
				if op.Inst < 0 || op.Inst >= i {
					return fmt.Errorf("ir: inst %d operand references inst %d (not earlier)", i, op.Inst)
				}
				// No stale-version reads: once an architectural register
				// is redefined, values of superseded definitions are
				// dead (Builder always references the current one).
				// TempDest readers are exempt: a mitigation pass inserts
				// them at a point where a guard's operand may already be
				// superseded; the scheduler's anti-dependence edges order
				// them before the redefinition commits.
				if d := b.Insts[op.Inst].DestArch; d > 0 && defined[d] != op.Inst && in.DestArch != TempDest {
					return fmt.Errorf("ir: inst %d reads inst %d's value of x%d, superseded by inst %d (renaming violated)", i, op.Inst, d, defined[d])
				}
			}
			if op.Kind == OpRegIn {
				if op.Reg == 0 {
					return fmt.Errorf("ir: inst %d operand reads x0 as RegIn", i)
				}
				if d := defined[op.Reg]; d >= 0 && in.DestArch != TempDest {
					return fmt.Errorf("ir: inst %d reads entry value of x%d, redefined by inst %d (renaming violated)", i, op.Reg, d)
				}
			}
		}
		if in.DestArch > 0 {
			defined[in.DestArch] = i
		}
		if in.IsBranch() && in.BranchExit == 0 {
			return fmt.Errorf("ir: inst %d is a branch without an exit address", i)
		}
		if (in.IsStore() || in.IsBranch()) && in.DestArch >= 0 {
			return fmt.Errorf("ir: inst %d (%s) must not define a register", i, in.Op)
		}
	}
	for k, e := range b.Edges {
		if e.From < 0 || e.To < 0 || e.From >= len(b.Insts) || e.To >= len(b.Insts) {
			return fmt.Errorf("ir: edge %d out of range", k)
		}
		if e.From >= e.To {
			return fmt.Errorf("ir: edge %d (%d->%d) not forward in program order", k, e.From, e.To)
		}
		if e.Kind == EdgeGuard && e.Relaxable {
			return fmt.Errorf("ir: edge %d: guard edges must not be relaxable", k)
		}
	}
	return nil
}

// String renders the block for debugging and tests.
func (b *Block) String() string {
	s := fmt.Sprintf("block @%#x (%d insts)\n", b.EntryPC, len(b.Insts))
	for i := range b.Insts {
		in := &b.Insts[i]
		dest := "-"
		if in.DestArch >= 0 {
			dest = riscv.RegName(uint8(in.DestArch))
		} else if in.DestArch == TempDest {
			dest = "tmp"
		}
		s += fmt.Sprintf("  n%-3d %-8s dest=%-4s a=%-6s b=%-6s imm=%d", i, in.Op, dest, in.A, in.B, in.Imm)
		if in.IsBranch() {
			s += fmt.Sprintf(" exit=%#x", in.BranchExit)
		}
		s += "\n"
	}
	for _, e := range b.Edges {
		r := ""
		if e.Relaxable {
			r = " (relaxable)"
		}
		s += fmt.Sprintf("  edge n%d -> n%d %s%s\n", e.From, e.To, e.Kind, r)
	}
	return s
}
