package pipeline

import (
	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// detectOnly is the unsafe baseline: the analysis runs for the report
// (and the audit's explanation of what would leak), and the block keeps
// full speculation.
func detectOnly(*ir.Block, core.Report, [][]int, *Memory, *ir.AuditReport) int { return 0 }

// ghostBusters is the paper's mitigation (Fig. 3C): each risky load is
// made non-speculative and receives a guard edge from every instruction
// that caused its poisoning; every other load keeps speculating.
func ghostBusters(b *ir.Block, rep core.Report, pins [][]int, _ *Memory, _ *ir.AuditReport) int {
	added := 0
	for k, load := range rep.RiskyLoads {
		added += core.PinRisky(b, load, pins[k])
	}
	return added
}

// fence is the coarse baseline: no speculation may cross a guard the
// analysis implicated in a Spectre pattern.
func fence(b *ir.Block, rep core.Report, _ [][]int, _ *Memory, _ *ir.AuditReport) int {
	for _, g := range rep.Guards {
		b.PinFrom(g)
	}
	return 0
}

// noSpec is the naive baseline: both speculation mechanisms off. It
// needs no analysis; the report is kept for symmetry with the others.
func noSpec(b *ir.Block, _ core.Report, _ [][]int, _ *Memory, _ *ir.AuditReport) int {
	b.PinAll()
	return 0
}

// loadFence pins every load with a relaxable incoming edge: no load
// ever executes speculatively, so no poison is ever generated and the
// Spectre pattern cannot arise. ALU work keeps speculating, which
// keeps it cheaper than nospec. The detection analysis still runs for
// the report (and the audit explanation of what would have leaked).
func loadFence(b *ir.Block, _ core.Report, _ [][]int, _ *Memory, _ *ir.AuditReport) int {
	for k := range b.Edges {
		e := &b.Edges[k]
		if e.Relaxable && b.Insts[e.To].IsLoad() {
			e.Relaxable = false
		}
	}
	return 0
}

// sfiClamp rewrites each risky access to use a clamped address instead
// of pinning it: for every guard branch it materialises the
// fall-through predicate from the branch's own operands, ANDs the
// predicates together, expands the result to an all-ones/all-zero mask
// (mask = 0 - p) and masks the access's address base with it. On the
// architectural path the mask is all ones and the address is untouched;
// on any path where a guard would exit, the address clamps to the load
// offset alone, which is below the guest memory base — the dismissable
// load squashes without filling a cache line, so misspeculation leaks
// nothing while the access keeps its speculative schedule.
//
// Inserted instructions carry ir.TempDest: their values live only in
// hidden registers, are never committed, and mark an already-clamped
// access for idempotence. Accesses guarded by a store (the v4 pattern —
// no predicate to materialise) fall back to ghostbusters pinning.
func sfiClamp(b *ir.Block, rep core.Report, pins [][]int, _ *Memory, aud *ir.AuditReport) int {
	added := 0
	var masked []int // rep.RiskyLoads positions of the loads to clamp, program order
	for k, load := range rep.RiskyLoads {
		switch {
		case isClamped(b, load):
			// already carries a mask chain from a previous application
		case branchGuardsOnly(b, pins[k]):
			masked = append(masked, k)
		default:
			added += core.PinRisky(b, load, pins[k])
		}
	}

	// Insert mask chains back to front so pending (smaller) indices in
	// masked/pins stay valid while later chains are placed.
	type insertion struct{ at, n int }
	var ins []insertion // descending at
	for j := len(masked) - 1; j >= 0; j-- {
		k := masked[j]
		load := rep.RiskyLoads[k]
		chain := maskChain(b, load, pins[k])
		b.InsertInsts(load, chain)
		// The access now reads the clamped address (the chain's final
		// AND, immediately before the shifted load).
		b.Insts[load+len(chain)].A = ir.FromInst(load + len(chain) - 1)
		ins = append(ins, insertion{at: load, n: len(chain)})
	}
	if len(ins) == 0 {
		return added
	}

	// InsertInsts renumbered the block; renumber the report's lists (in
	// place: they are the caller's) and the audit the same way. remap
	// is evaluated against original indices: each insertion shifts
	// exactly the indices at or above its point, and since ins is
	// descending the running value only crosses an `at` it had already
	// passed originally.
	remap := func(i int) int {
		for _, s := range ins {
			if i >= s.at {
				i += s.n
			}
		}
		return i
	}
	remapAll := func(xs []int) {
		for i := range xs {
			xs[i] = remap(xs[i])
		}
	}
	remapAll(rep.Poisoned)
	remapAll(rep.RiskyLoads)
	remapAll(rep.Guards)
	if aud != nil {
		wasMasked := make(map[int]bool, len(masked))
		for _, k := range masked {
			wasMasked[rep.RiskyLoads[k]] = true // already renumbered
		}
		remapChains(aud.Poisoned, remap, nil)
		remapChains(aud.Pinned, remap, wasMasked)
	}
	return added
}

// remapChains renumbers provenance chains after instruction insertion.
// For chains explaining a masked access, the final data-flow step now
// runs through the inserted AND (the access's rewritten address
// operand), so the AND is spliced into the path to keep the chain
// structurally verifiable.
func remapChains(chains []ir.ProvenanceChain, remap func(int) int, masked map[int]bool) {
	for i := range chains {
		c := &chains[i]
		c.Node = remap(c.Node)
		c.Source = remap(c.Source)
		for k := range c.Path {
			c.Path[k] = remap(c.Path[k])
		}
		for k := range c.Guards {
			c.Guards[k].Node = remap(c.Guards[k].Node)
		}
		if masked != nil && masked[c.Node] && len(c.Path) >= 2 {
			// addr -> load became addr -> ... -> AND -> load; the AND
			// sits immediately before the (shifted) load.
			c.Path = append(c.Path[:len(c.Path)-1], c.Node-1, c.Node)
		}
	}
}

// isClamped reports whether the access already reads a mitigation-
// inserted address (its base operand is a TempDest temporary).
func isClamped(b *ir.Block, load int) bool {
	a := b.Insts[load].A
	return a.Kind == ir.OpInst && b.Insts[a.Inst].DestArch == ir.TempDest
}

// branchGuardsOnly reports whether every guard is a conditional branch
// sfiClamp knows how to turn into a predicate.
func branchGuardsOnly(b *ir.Block, guards []int) bool {
	if len(guards) == 0 {
		return false
	}
	for _, g := range guards {
		switch b.Insts[g].Op {
		case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
		default:
			return false
		}
	}
	return true
}

// maskChain builds the TempDest instruction sequence computing the
// clamped address base for the access at index `at`, to be inserted at
// `at`. Operands referencing existing instructions use pre-insertion
// indices (all guards and their operands precede the access); chain
// elements reference each other by their final, post-insertion index
// at+k. Branches are normalised so taken == leave the trace, so each
// per-guard predicate is 1 exactly on the fall-through path.
func maskChain(b *ir.Block, at int, guards []int) []ir.Inst {
	var chain []ir.Inst
	pc := b.Insts[at].PC
	tmp := func(op riscv.Op, a, bop ir.Operand, imm int64) int {
		chain = append(chain, ir.Inst{Op: op, A: a, B: bop, Imm: imm, DestArch: ir.TempDest, PC: pc})
		return len(chain) - 1
	}
	ref := func(k int) ir.Operand { return ir.FromInst(at + k) }
	none := ir.Operand{} // reads as the constant zero

	var preds []int // chain positions holding each guard's 0/1 predicate
	for _, g := range guards {
		gi := &b.Insts[g]
		var p int
		switch gi.Op {
		case riscv.BEQ: // exits when a == b: p = (a ^ b) != 0
			t := tmp(riscv.XOR, gi.A, gi.B, 0)
			p = tmp(riscv.SLTU, none, ref(t), 0)
		case riscv.BNE: // exits when a != b: p = (a ^ b) == 0
			t := tmp(riscv.XOR, gi.A, gi.B, 0)
			p = tmp(riscv.SLTIU, ref(t), ir.Operand{}, 1)
		case riscv.BLT: // exits when a < b (signed): p = !(a < b)
			t := tmp(riscv.SLT, gi.A, gi.B, 0)
			p = tmp(riscv.XORI, ref(t), ir.Operand{}, 1)
		case riscv.BGE: // exits when a >= b (signed): p = a < b
			p = tmp(riscv.SLT, gi.A, gi.B, 0)
		case riscv.BLTU: // exits when a < b (unsigned): p = !(a < b)
			t := tmp(riscv.SLTU, gi.A, gi.B, 0)
			p = tmp(riscv.XORI, ref(t), ir.Operand{}, 1)
		case riscv.BGEU: // exits when a >= b (unsigned): p = a < b
			p = tmp(riscv.SLTU, gi.A, gi.B, 0)
		}
		preds = append(preds, p)
	}

	acc := preds[0]
	for _, p := range preds[1:] {
		acc = tmp(riscv.AND, ref(acc), ref(p), 0)
	}
	// Expand the 0/1 predicate to an all-ones/all-zero mask.
	mask := tmp(riscv.SUB, none, ref(acc), 0)
	// Clamp the access's address base.
	tmp(riscv.AND, b.Insts[at].A, ref(mask), 0)
	return chain
}
