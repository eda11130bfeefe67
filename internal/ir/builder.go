package ir

import "ghostbusters/internal/riscv"

// Builder constructs a Block with register renaming and automatic
// dependency edges. The translator feeds it guest instructions in
// program order; the builder maintains the data-flow operands (which
// earlier instruction currently defines each architectural register) and
// inserts memory, control, and barrier ordering edges.
//
// Edge policy (matching a speculating DBT engine):
//   - store -> later load, addresses not provably disjoint: RELAXABLE
//     memory edge (the scheduler may hoist the load = memory dependency
//     speculation via the Memory Conflict Buffer);
//   - load -> later store, store -> store: hard memory edge (stores are
//     never executed speculatively);
//   - branch -> later load or ALU result: RELAXABLE control edge (the
//     scheduler may hoist = branch speculation into hidden registers);
//   - branch -> later store or branch: hard control edge;
//   - everything with an architectural effect -> the next branch: hard
//     edge (a taken side exit must observe all earlier effects; the
//     scheduler does no downward motion across exits);
//   - rdcycle / cflush / fence: two-sided barrier for memory operations,
//     branches, and other barriers.
type Builder struct {
	blk      *Block
	regs     [32]Operand // current definition of each arch register
	memOps   []int       // prior loads and stores (for alias edges)
	branches []int       // prior side-exit branches
	sinceBr  []int       // arch-effecting insts since the last branch
	barrier  int         // index of the last barrier, -1 if none
}

// NewBuilder starts a block at the given guest PC.
func NewBuilder(entryPC uint64) *Builder {
	bu := new(Builder)
	bu.Reset(entryPC)
	return bu
}

// Reset starts a new block at entryPC in the builder's memory: the
// block, its Insts and Edges arrays and the builder's own lists keep
// their backing storage, so a builder reused region after region stops
// allocating once it has grown to the largest one. Reset overwrites the
// block Block returned before; a caller that keeps a block builds it
// with a builder of its own. The zero Builder is ready for Reset.
func (bu *Builder) Reset(entryPC uint64) {
	b := bu.blk
	if b == nil {
		b = new(Block)
		bu.blk = b
	}
	*b = Block{EntryPC: entryPC, Insts: b.Insts[:0], Edges: b.Edges[:0]}
	bu.regs = [32]Operand{}
	bu.memOps, bu.branches, bu.sinceBr = bu.memOps[:0], bu.branches[:0], bu.sinceBr[:0]
	bu.barrier = -1
}

// Reg returns the operand currently defining architectural register r.
func (bu *Builder) Reg(r uint8) Operand {
	if r == 0 {
		return Operand{}
	}
	if bu.regs[r].Kind == OpNone {
		return RegIn(r)
	}
	return bu.regs[r]
}

// Block returns the block built so far.
func (bu *Builder) Block() *Block { return bu.blk }

// SetFallthrough records where execution continues after the block.
func (bu *Builder) SetFallthrough(pc uint64, terminator bool) {
	bu.blk.FallPC = pc
	bu.blk.TerminatorExit = terminator
}

// Emit appends an instruction, wiring dependency edges and updating the
// register renaming. It returns the instruction index.
func (bu *Builder) Emit(in Inst) int {
	idx := bu.blk.AddInst(in)
	b := bu.blk

	switch {
	case in.IsLoad():
		for _, m := range bu.memOps {
			prior := &b.Insts[m]
			if !prior.IsStore() {
				continue
			}
			switch aliases(b, m, idx) {
			case aliasNever:
				// provably disjoint: no edge
			case aliasAlways:
				b.AddEdge(Edge{From: m, To: idx, Kind: EdgeMem, Relaxable: false})
			default:
				// Unknown: the DBT engine speculates here (Spectre v4
				// vector) — relaxable edge.
				b.AddEdge(Edge{From: m, To: idx, Kind: EdgeMem, Relaxable: true})
			}
		}
		for _, br := range bu.branches {
			// Loads may be hoisted above side exits (Spectre v1 vector).
			b.AddEdge(Edge{From: br, To: idx, Kind: EdgeCtrl, Relaxable: true})
		}
		bu.memOps = append(bu.memOps, idx)
		bu.sinceBr = append(bu.sinceBr, idx)

	case in.IsStore():
		for _, m := range bu.memOps {
			if aliases(b, m, idx) == aliasNever {
				continue
			}
			b.AddEdge(Edge{From: m, To: idx, Kind: EdgeMem, Relaxable: false})
		}
		for _, br := range bu.branches {
			b.AddEdge(Edge{From: br, To: idx, Kind: EdgeCtrl, Relaxable: false})
		}
		bu.memOps = append(bu.memOps, idx)
		bu.sinceBr = append(bu.sinceBr, idx)

	case in.IsBranch(), in.Op == riscv.JALR:
		// Side-exit branches and the indirect-jump terminator: a taken
		// exit must observe every earlier architectural effect.
		for _, br := range bu.branches {
			b.AddEdge(Edge{From: br, To: idx, Kind: EdgeCtrl, Relaxable: false})
		}
		for _, e := range bu.sinceBr {
			b.AddEdge(Edge{From: e, To: idx, Kind: EdgeCtrl, Relaxable: false})
		}
		bu.branches = append(bu.branches, idx)
		bu.sinceBr = bu.sinceBr[:0]

	case in.IsBarrier():
		for _, m := range bu.memOps {
			b.AddEdge(Edge{From: m, To: idx, Kind: EdgeMem, Relaxable: false})
		}
		for _, br := range bu.branches {
			b.AddEdge(Edge{From: br, To: idx, Kind: EdgeCtrl, Relaxable: false})
		}
		if bu.barrier >= 0 {
			b.AddEdge(Edge{From: bu.barrier, To: idx, Kind: EdgeMem, Relaxable: false})
		}
		bu.barrier = idx

	default:
		// Plain ALU: may be hoisted above branches into hidden registers.
		for _, br := range bu.branches {
			b.AddEdge(Edge{From: br, To: idx, Kind: EdgeCtrl, Relaxable: true})
		}
		if in.DestArch >= 0 {
			bu.sinceBr = append(bu.sinceBr, idx)
		}
	}

	// Barrier ordering for memory ops emitted after a barrier.
	if (in.IsLoad() || in.IsStore() || in.IsBranch()) && bu.barrier >= 0 && bu.barrier != idx {
		b.AddEdge(Edge{From: bu.barrier, To: idx, Kind: EdgeMem, Relaxable: false})
	}

	if in.DestArch > 0 {
		bu.regs[in.DestArch] = FromInst(idx)
	}
	return idx
}

type aliasResult uint8

const (
	aliasUnknown aliasResult = iota
	aliasAlways
	aliasNever
)

// aliases is the trivial static alias analysis available to a DBT engine:
// it only resolves accesses with the *same base operand* (same register
// definition) and constant offsets. Everything else is unknown — which is
// exactly why DBT engines rely on memory dependency speculation (paper,
// Section III-B: "the DBT engine has no access to memory addresses, only
// register plus offset").
func aliases(b *Block, i, j int) aliasResult {
	a, c := &b.Insts[i], &b.Insts[j]
	sa, sc := a.Op.MemSize(), c.Op.MemSize()
	if sa == 0 || sc == 0 {
		return aliasUnknown // barrier pseudo mem-op
	}
	if a.A != c.A {
		return aliasUnknown
	}
	if a.Imm == c.Imm && sa == sc {
		return aliasAlways
	}
	loA, hiA := a.Imm, a.Imm+int64(sa)
	loC, hiC := c.Imm, c.Imm+int64(sc)
	if hiA <= loC || hiC <= loA {
		return aliasNever
	}
	return aliasAlways
}
