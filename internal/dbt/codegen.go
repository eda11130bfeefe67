package dbt

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"ghostbusters/internal/core"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// CompileResult bundles the translated code with the mitigation report.
type CompileResult struct {
	Block  *vliw.Block
	Report core.Report

	// Audit carries the per-block provenance report and the mitigated
	// IR block it describes, populated only when compileWith's audit is
	// set (Config.Audit); nil otherwise — the unaudited translation
	// path performs no provenance bookkeeping at all.
	Audit   *ir.AuditReport
	AuditIR *ir.Block
}

// compile runs the full back end on one IR block: mitigation, graph
// construction, list scheduling, syllable emission, recovery-slice
// generation. guestInsts is the number of guest instructions the block
// covers. It analyses, schedules and builds the block through fresh
// memory.
func compile(b *ir.Block, guestInsts int, cfg *vliw.Config, mode core.Mode) (CompileResult, error) {
	return compileWith(&graph{code: new(vliw.Arena)}, nil, b, guestInsts, cfg, mode, false)
}

// compileWith is compile mitigating through pm and scheduling through
// g, the caller's reusable memory, and building the block in g.code;
// the result's Report lists live in pm until its next use. audit
// collects the poison-provenance audit report during mitigation; b
// stays the caller's, and with audit the result retains it for replay
// and rendering.
func compileWith(g *graph, pm *pipeline.Memory, b *ir.Block, guestInsts int, cfg *vliw.Config, mode core.Mode, audit bool) (CompileResult, error) {
	if err := b.Verify(); err != nil {
		return CompileResult{}, err
	}
	var aud *ir.AuditReport
	if audit {
		aud = &ir.AuditReport{}
	}
	rep := pipeline.Apply(pm, mode, b, aud)

	// A failed try leaves nothing in g.code.
	try := func(ctrlSpec, memSpec bool) (*vliw.Block, error) {
		if err := g.buildGraph(b, cfg, ctrlSpec, memSpec); err != nil {
			return nil, err
		}
		place, numBundles, err := g.schedule()
		if err != nil {
			return nil, err
		}
		mark := g.code.Mark()
		blk, err := g.emit(place, numBundles, guestInsts)
		if err != nil {
			g.code.Rewind(mark)
		}
		return blk, err
	}
	blk, err := try(true, true)
	if err == errHiddenOverflow {
		blk, err = try(false, true) // no branch speculation
	}
	if err == errHiddenOverflow {
		blk, err = try(false, false) // no speculation at all
	}
	g.b, g.cfg = nil, nil // g outlives the region; keep nothing of it alive
	if err != nil {
		return CompileResult{}, err
	}
	res := CompileResult{Block: blk, Report: rep}
	if audit {
		res.Audit, res.AuditIR = aud, b
	}
	return res, nil
}

// destPhys returns the physical destination register of an instruction
// node (hidden when speculative, architectural otherwise, 0 if none).
func (g *graph) destPhys(i int) uint8 {
	nd := &g.nodes[i]
	if nd.hiddenDest {
		return nd.hidden
	}
	d := g.b.Insts[i].DestArch
	if d > 0 {
		return uint8(d)
	}
	return 0
}

// operandPhys resolves an IR operand to a physical register.
func (g *graph) operandPhys(op ir.Operand) uint8 {
	switch op.Kind {
	case ir.OpRegIn:
		return op.Reg
	case ir.OpInst:
		return g.destPhys(op.Inst)
	}
	return 0
}

// syllable materialises the VLIW operation for a node.
func (g *graph) syllable(id int) (vliw.Syllable, error) {
	nd := &g.nodes[id]
	switch nd.kind {
	case nChk:
		return vliw.Syllable{Kind: vliw.KChk, Tag: nd.tag, Rec: -1, GuestPC: g.b.Insts[nd.irIdx].PC}, nil
	case nCommit:
		src := &g.nodes[nd.irIdx]
		return vliw.Syllable{
			Kind:    vliw.KCommit,
			Dst:     uint8(g.b.Insts[nd.irIdx].DestArch),
			Ra:      src.hidden,
			GuestPC: g.b.Insts[nd.irIdx].PC,
		}, nil
	}

	in := &g.b.Insts[nd.irIdx]
	s := vliw.Syllable{Kind: nd.sylKind, Op: in.Op, GuestPC: in.PC}
	switch nd.sylKind {
	case vliw.KNop: // fence: ordering only

	case vliw.KMovI:
		s.Dst = g.destPhys(nd.irIdx)
		s.Imm = in.Imm

	case vliw.KAluRR:
		s.Dst = g.destPhys(nd.irIdx)
		s.Ra = g.operandPhys(in.A)
		s.Rb = g.operandPhys(in.B)

	case vliw.KAluRI:
		s.Dst = g.destPhys(nd.irIdx)
		s.Ra = g.operandPhys(in.A)
		s.Imm = in.Imm

	case vliw.KLoad, vliw.KLoadD, vliw.KLoadS:
		s.Dst = g.destPhys(nd.irIdx)
		s.Ra = g.operandPhys(in.A)
		s.Imm = in.Imm
		s.Tag = nd.tag

	case vliw.KStore:
		s.Ra = g.operandPhys(in.A)
		s.Rb = g.operandPhys(in.B)
		s.Imm = in.Imm

	case vliw.KBrExit:
		s.Ra = g.operandPhys(in.A)
		s.Rb = g.operandPhys(in.B)
		s.Imm = int64(in.BranchExit)

	case vliw.KJumpR:
		s.Ra = g.operandPhys(in.A)
		s.Imm = in.Imm

	case vliw.KCsr:
		s.Dst = g.destPhys(nd.irIdx)
		s.Imm = in.Imm

	case vliw.KFlush:
		s.Ra = g.operandPhys(in.A)

	default:
		return s, fmt.Errorf("dbt: cannot emit node kind %v", nd.sylKind)
	}
	return s, nil
}

// emit builds the final vliw.Block in its dense form, in g.code:
// syllables placed into bundles, dependent loads promoted to dismissable
// form, recovery slices attached to each chk. The block's syllables,
// bundles' and recoveries' alike, share one array.
func (g *graph) emit(place []placement, numBundles, guestInsts int) (*vliw.Block, error) {
	blk := g.code.NewBlock()
	blk.EntryPC, blk.FallPC, blk.GuestInsts = g.b.EntryPC, g.b.FallPC, guestInsts
	if numBundles > 0 {
		blk.Slots, blk.Width = g.code.Slots(numBundles), g.cfg.Width()
	}
	// Every node fills one slot; the slot masks fix where each bundle's
	// syllables start.
	for id := range g.nodes {
		p := place[id]
		bit := uint16(1) << p.slot
		if blk.Slots[p.cycle].Mask&bit != 0 {
			return nil, fmt.Errorf("dbt: slot collision at bundle %d slot %d", p.cycle, p.slot)
		}
		blk.Slots[p.cycle].Mask |= bit
	}
	nbs := 0
	for i := range blk.Slots {
		blk.Slots[i].Start = uint16(nbs)
		nbs += bits.OnesCount16(blk.Slots[i].Mask)
	}

	// Forward slices: for each MCB-speculated load, every node data-
	// dependent on it that executes no later than its chk. Used both for
	// recovery code and for promoting dependent architectural loads to
	// dismissable form (their first execution may use an unvalidated
	// address).
	nn := len(g.nodes)
	inAnySlice := fill(g.inAnySlice, nn, false)
	depends := resize(g.depends, nn)
	g.inAnySlice, g.depends = inAnySlice, depends
	// Node order for slice propagation: by program position, and at one
	// position the instruction, then its chk, then its commit. A
	// position holds at most one node of each kind, so one pass over
	// the positions yields the order.
	order := g.order[:0]
	for i := range g.b.Insts {
		order = append(order, i)
		if c := g.chkOf[i]; c >= 0 {
			order = append(order, c)
		}
		if c := g.commitOf[i]; c >= 0 {
			order = append(order, c)
		}
	}
	g.order = order
	sliceNodes := g.sliceNodes[:0]
	sliceOff := resize(g.sliceOff, len(g.specLoads)+1)
	sliceOff[0] = 0
	for k, loadIdx := range g.specLoads {
		chkCycle := place[g.chkOf[loadIdx]].cycle
		clear(depends)
		depends[loadIdx] = true
		for _, id := range order {
			nd := &g.nodes[id]
			dep := depends[id]
			if !dep {
				switch nd.kind {
				case nInst:
					in := &g.b.Insts[nd.irIdx]
					if in.A.Kind == ir.OpInst && depends[in.A.Inst] {
						dep = true
					}
					if !in.IsLoad() && in.B.Kind == ir.OpInst && depends[in.B.Inst] {
						dep = true
					}
					if in.IsLoad() && in.B.Kind == ir.OpInst && depends[in.B.Inst] {
						dep = true
					}
				case nCommit:
					dep = depends[nd.irIdx]
				case nChk:
					dep = false // chks are never replayed
				}
			}
			if !dep {
				continue
			}
			depends[id] = true
			if nd.kind == nChk {
				continue
			}
			if place[id].cycle <= chkCycle {
				if nd.kind == nInst {
					in := &g.b.Insts[nd.irIdx]
					if in.IsStore() || in.IsBranch() || in.Op == riscv.JALR {
						return nil, fmt.Errorf("dbt: dependent %s scheduled before chk (cycle %d <= %d)", in.Op, place[id].cycle, chkCycle)
					}
				}
				sliceNodes = append(sliceNodes, id)
				inAnySlice[id] = true
			}
		}
		slices.SortStableFunc(sliceNodes[sliceOff[k]:], func(a, b int) int {
			pa, pb := place[a], place[b]
			if pa.cycle != pb.cycle {
				return cmp.Compare(pa.cycle, pb.cycle)
			}
			return cmp.Compare(pa.slot, pb.slot)
		})
		sliceOff[k+1] = len(sliceNodes)
	}
	g.sliceNodes, g.sliceOff = sliceNodes, sliceOff

	// Promote architectural loads that may execute with an unvalidated
	// address to dismissable form.
	for id := range g.nodes {
		nd := &g.nodes[id]
		if nd.kind == nInst && nd.sylKind == vliw.KLoad && inAnySlice[id] {
			nd.sylKind = vliw.KLoadD
		}
	}

	// Hidden register allocation: linear scan over live ranges. A hidden
	// value lives from its defining bundle to its last reader — data
	// consumers, its commit, and (for lds forward slices) the chk whose
	// recovery may re-read and re-write it.
	if err := g.allocHidden(place); err != nil {
		return nil, err
	}

	if nbs+len(sliceNodes) > vliw.MaxSyllables {
		return nil, fmt.Errorf("dbt: block of %d syllables exceeds %d", nbs+len(sliceNodes), vliw.MaxSyllables)
	}
	blk.Syls = g.code.Syls(nbs + len(sliceNodes))

	// Recovery sequences, one per chk, in tag (program) order:
	// recovery k belongs to specLoads[k].
	if len(g.specLoads) > 0 {
		blk.RecStart = g.code.RecStart(len(g.specLoads))
		for k, l := range g.specLoads {
			lo, hi := sliceOff[k], sliceOff[k+1]
			blk.RecStart[k] = uint16(nbs + lo)
			rec := blk.Syls[nbs+lo : nbs+hi]
			for j, id := range sliceNodes[lo:hi] {
				s, err := g.syllable(id)
				if err != nil {
					return nil, err
				}
				if id == l {
					// The failing load re-executes architecturally.
					s.Kind = vliw.KLoad
					s.Tag = 0
				}
				rec[j] = s
			}
		}
	}

	// Place syllables.
	for id := range g.nodes {
		s, err := g.syllable(id)
		if err != nil {
			return nil, err
		}
		if g.nodes[id].kind == nChk {
			s.Rec = int16(g.specRow[g.nodes[id].irIdx])
		}
		p := place[id]
		sl := blk.Slots[p.cycle]
		blk.Syls[int(sl.Start)+bits.OnesCount16(sl.Mask&(1<<p.slot-1))] = s
	}
	return blk, nil
}

// hiddenRange is the live range of one hidden-destination node.
type hiddenRange struct {
	id         int
	start, end int
}

// activeRange is a hidden register held until the end of a range.
type activeRange struct {
	end int
	reg uint8
}

// allocHidden assigns physical hidden registers (32..63) to every
// hidden-destination node by linear scan over post-schedule live ranges.
// Reuse requires the previous value's last use to be strictly before the
// new definition's bundle, because MCB recovery code re-reads slice
// values after the write phase of the chk's bundle.
func (g *graph) allocHidden(place []placement) error {
	// end[id] is the last cycle node id's hidden value is read; -1 for
	// nodes without one.
	end := fill(g.end, len(g.nodes), -1)
	g.end = end
	for id := range g.nodes {
		nd := &g.nodes[id]
		if nd.kind == nInst && nd.hiddenDest {
			end[id] = place[id].cycle
		}
	}
	extend := func(id, cycle int) {
		if e := end[id]; e >= 0 && cycle > e {
			end[id] = cycle
		}
	}
	// Data consumers.
	for i := range g.b.Insts {
		in := &g.b.Insts[i]
		ops := [2]ir.Operand{in.A, in.B}
		for oi, op := range ops {
			if oi == 1 && in.IsLoad() {
				continue
			}
			if op.Kind == ir.OpInst {
				extend(op.Inst, place[i].cycle)
			}
		}
	}
	// Commits read their instruction's hidden register.
	for i, m := range g.commitOf {
		if m >= 0 {
			extend(i, place[m].cycle)
		}
	}
	// Recovery keeps slice values (and their out-of-slice hidden inputs)
	// live until the chk.
	for k, load := range g.specLoads {
		chkCycle := place[g.chkOf[load]].cycle
		for _, id := range g.sliceNodes[g.sliceOff[k]:g.sliceOff[k+1]] {
			nd := &g.nodes[id]
			if nd.kind != nInst {
				continue
			}
			extend(id, chkCycle)
			in := &g.b.Insts[nd.irIdx]
			ops := [2]ir.Operand{in.A, in.B}
			for oi, op := range ops {
				if oi == 1 && in.IsLoad() {
					continue
				}
				if op.Kind == ir.OpInst {
					extend(op.Inst, chkCycle)
				}
			}
		}
	}

	ranges := g.ranges[:0]
	for id, e := range end {
		if e >= 0 {
			ranges = append(ranges, hiddenRange{id: id, start: place[id].cycle, end: e})
		}
	}
	g.ranges = ranges
	slices.SortFunc(ranges, func(a, b hiddenRange) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.id, b.id)
	})

	// free is a queue: registers are taken from free[head] and returned
	// to the back.
	free := g.free[:0]
	for r := uint8(32); r < vliw.NumRegs; r++ {
		free = append(free, r)
	}
	head := 0
	active := g.active[:0]
	for _, r := range ranges {
		kept := active[:0]
		for _, a := range active {
			if a.end < r.start {
				free = append(free, a.reg)
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
		if head == len(free) {
			g.free, g.active = free, active
			return errHiddenOverflow
		}
		reg := free[head]
		head++
		g.nodes[r.id].hidden = reg
		active = append(active, activeRange{end: r.end, reg: reg})
	}
	g.free, g.active = free, active
	return nil
}
