package dbt

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// The scheduler turns a mitigated IR block into a VLIW schedule. It
// implements the two software speculation mechanisms of the paper:
//
//   - branch speculation: instructions hoisted above a side-exit branch
//     write hidden registers; a commit node at the original program
//     position publishes the architectural value, so taken exits never
//     observe hoisted results;
//   - memory dependency speculation: loads hoisted above stores become
//     MCB-checked lds operations; a chk node stands at the load's
//     original position and branches to DBT-generated recovery code on
//     conflict.
//
// Every instruction in the speculative forward slice of an lds (the
// instructions its recovery may replay) is renamed into a hidden
// register with a commit after the chk: that keeps recovery replayable
// even for self-overwriting guest code (add t0, t0, t1) and guarantees
// the architectural state only ever holds validated values.
//
// Relaxable IR edges that survive the mitigation are dropped here; hard
// edges (including mitigation-inserted guard edges) constrain the list
// scheduler.

type nodeKind uint8

const (
	nInst nodeKind = iota
	nChk
	nCommit
)

type dep struct {
	from int
	lat  uint64
}

// edge is one scheduling dependency: to issues at least lat cycles
// after from.
type edge struct {
	from, to int
	lat      uint64
}

type schedNode struct {
	kind  nodeKind
	irIdx int // the IR instruction this node derives from
	pos   int // program position (IR index)

	sylKind vliw.Kind
	cap     vliw.SlotCap
	lat     uint64
	prio    uint64

	specCtrl   bool // may be scheduled above a side-exit branch
	specMem    bool // lds with MCB tag
	hiddenDest bool // result goes to a hidden register + commit
	tag        uint8
	hidden     uint8 // allocated hidden register when hiddenDest
}

// writer is an architectural-register writer: a direct instruction or
// the commit node of a hidden-destination instruction.
type writer struct {
	pos     int
	node    int   // node id; -1 until the commit node exists
	inst    int   // IR instruction index
	chkPins []int // chk nodes that must precede this writer
}

// graph is the scheduling graph of one region. It is also the
// scheduler's reusable memory: every table is index-addressed and keeps
// its backing array from one region to the next, so a machine that
// compiles its regions through one graph (transState.sched) stops
// allocating for them once the graph has grown to its largest region.
// buildGraph resets it; compileWith drops the region's block and core
// configuration afterwards. The vliw.Block emit returns shares no
// memory with it: emit builds it in code.
type graph struct {
	b     *ir.Block
	cfg   *vliw.Config
	nodes []schedNode

	// code is where emit builds blocks: the machine's arena
	// (transState.code).
	code *vliw.Arena

	// edges holds every dependency in insertion order. index derives
	// the CSR views from it: node id's predecessors are
	// preds[predOff[id]:predOff[id+1]] and its successors
	// succs[succOff[id]:succOff[id+1]], both in insertion order.
	edges            []edge
	predOff, succOff []int
	preds            []dep
	succs            []int

	// Per IR instruction.
	specCtrl, specMem, hiddenDest []bool
	inAnyClosure                  []bool
	relCtrl, relMem               []bool  // has a relaxable control / memory in-edge
	chkOf                         []int   // chk node id of an lds, -1 otherwise
	commitOf                      []int   // commit node id, -1 when none
	specRow                       []int   // row of an lds in specLoads, -1 otherwise
	droppedStores                 [][]int // lds -> stores it speculated across
	droppedBranches               [][]int // inst -> branches it was hoisted above

	// specLoads lists the lds in program order. specLoads[k] has MCB
	// tag k, its speculative forward slice is row k of closures
	// (len(specLoads) x n), and its recovery is Recoveries[k].
	specLoads []int
	closures  []bool

	// writersOf lists each architectural register's writers in program
	// order.
	writersOf [32][]writer

	branchPos, storePos, barrierPos []int

	// Buffers of topoOrder, the late-exit floors and schedule. ready is
	// topoOrder's stack, then schedule's ready list.
	topo, ready, indeg, floor []int
	place                     []placement
	remaining, earliest       []int
	cand, slotOrder           []int
	used                      []bool

	// Buffers of emit and allocHidden: each lds's forward slice is
	// sliceNodes[sliceOff[k]:sliceOff[k+1]].
	order                []int
	depends, inAnySlice  []bool
	sliceNodes, sliceOff []int
	end                  []int
	ranges               []hiddenRange
	active               []activeRange
	free                 []uint8
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill returns s resized to n with every element set to v.
func fill[T any](s []T, n int, v T) []T {
	s = resize(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// addDep records that node to depends on node from.
func (g *graph) addDep(to, from int, lat uint64) {
	if to == from {
		return
	}
	g.edges = append(g.edges, edge{from: from, to: to, lat: lat})
}

// index builds the predecessor and successor CSR arrays from the edge
// list. Filling them in edge order keeps every node's entries in
// insertion order.
func (g *graph) index() {
	nn := len(g.nodes)
	g.predOff = fill(g.predOff, nn+1, 0)
	g.succOff = fill(g.succOff, nn+1, 0)
	for _, e := range g.edges {
		g.predOff[e.to+1]++
		g.succOff[e.from+1]++
	}
	for i := 0; i < nn; i++ {
		g.predOff[i+1] += g.predOff[i]
		g.succOff[i+1] += g.succOff[i]
	}
	g.preds = resize(g.preds, len(g.edges))
	g.succs = resize(g.succs, len(g.edges))
	// Each offset serves as its node's fill cursor, ending at the next
	// node's start; the shift below restores the starts.
	for _, e := range g.edges {
		g.preds[g.predOff[e.to]] = dep{e.from, e.lat}
		g.predOff[e.to]++
		g.succs[g.succOff[e.from]] = e.to
		g.succOff[e.from]++
	}
	copy(g.predOff[1:], g.predOff[:nn])
	copy(g.succOff[1:], g.succOff[:nn])
	g.predOff[0], g.succOff[0] = 0, 0
}

func (g *graph) predsOf(id int) []dep { return g.preds[g.predOff[id]:g.predOff[id+1]] }
func (g *graph) succsOf(id int) []int { return g.succs[g.succOff[id]:g.succOff[id+1]] }

// closure returns row k of the lds forward-slice matrix.
func (g *graph) closure(k int) []bool {
	n := len(g.b.Insts)
	return g.closures[k*n : (k+1)*n]
}

// errHiddenOverflow asks the caller to retry with less speculation.
var errHiddenOverflow = fmt.Errorf("dbt: hidden register pressure too high")

// syllKindFor maps an IR instruction to its base syllable kind.
func syllKindFor(in *ir.Inst) vliw.Kind {
	switch {
	case in.IsLoad():
		return vliw.KLoad
	case in.IsStore():
		return vliw.KStore
	case in.IsBranch():
		return vliw.KBrExit
	case in.Op == riscv.JALR:
		return vliw.KJumpR
	case in.Op == riscv.CSRRW, in.Op == riscv.CSRRS, in.Op == riscv.CSRRC:
		return vliw.KCsr
	case in.Op == riscv.CFLUSH, in.Op == riscv.CFLUSHALL:
		return vliw.KFlush
	case in.Op == riscv.FENCE:
		return vliw.KNop
	case in.A.Kind == ir.OpNone && in.Op == riscv.ADDI:
		return vliw.KMovI
	default:
		fk, _ := in.Op.Info()
		if fk == riscv.FmtR {
			return vliw.KAluRR
		}
		return vliw.KAluRI
	}
}

// hoistable reports whether branch speculation applies to an
// instruction: every value-producing instruction (loads and ALU
// operations). Stores, branches and barriers never move above a side
// exit; everything else may, writing a hidden register until its commit
// point — full superblock scheduling, as in Transmeta-style DBT cores.
func hoistable(in *ir.Inst) bool {
	return !in.IsStore() && !in.IsBranch() && !in.IsBarrier() && in.Op != riscv.JALR
}

// buildGraph resets g and assembles the scheduling graph of b, deciding
// which relaxable edges to exploit. allowCtrlSpec / allowMemSpec disable
// the respective speculation mechanisms (fallbacks when hidden registers
// run out).
func (g *graph) buildGraph(b *ir.Block, cfg *vliw.Config, allowCtrlSpec, allowMemSpec bool) error {
	n := len(b.Insts)
	g.b, g.cfg = b, cfg
	g.nodes, g.edges = g.nodes[:0], g.edges[:0]
	specCtrl := fill(g.specCtrl, n, false)
	specMem := fill(g.specMem, n, false)
	hiddenDest := fill(g.hiddenDest, n, false)
	inAnyClosure := fill(g.inAnyClosure, n, false)
	relCtrl := fill(g.relCtrl, n, false)
	relMem := fill(g.relMem, n, false)
	g.specCtrl, g.specMem, g.hiddenDest, g.inAnyClosure = specCtrl, specMem, hiddenDest, inAnyClosure
	g.relCtrl, g.relMem = relCtrl, relMem
	g.chkOf = fill(g.chkOf, n, -1)
	g.commitOf = fill(g.commitOf, n, -1)
	g.specRow = fill(g.specRow, n, -1)
	g.droppedStores = resize(g.droppedStores, n)
	g.droppedBranches = resize(g.droppedBranches, n)
	for i := 0; i < n; i++ {
		g.droppedStores[i] = g.droppedStores[i][:0]
		g.droppedBranches[i] = g.droppedBranches[i][:0]
	}
	g.specLoads = g.specLoads[:0]
	for r := range g.writersOf {
		g.writersOf[r] = g.writersOf[r][:0]
	}

	// Classify per-instruction speculation.
	for _, e := range b.Edges {
		if !e.Relaxable {
			continue
		}
		switch e.Kind {
		case ir.EdgeCtrl:
			relCtrl[e.To] = true
		case ir.EdgeMem:
			relMem[e.To] = true
		}
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		if allowCtrlSpec && relCtrl[i] && hoistable(in) {
			specCtrl[i] = true
		}
		if allowMemSpec && relMem[i] && in.IsLoad() && len(g.specLoads) < vliw.MCBEntries {
			specMem[i] = true
			g.specRow[i] = len(g.specLoads)
			g.specLoads = append(g.specLoads, i)
		}
	}

	// Speculative forward slice of each lds: consumers that may execute
	// before its chk and therefore may be replayed by recovery code.
	// Propagation stops at non-speculative loads — those are pinned
	// behind the chk (validation ordering, below), so neither they nor
	// their descendants ever run on unvalidated data.
	isBarrierLoad := func(i int) bool {
		return b.Insts[i].IsLoad() && !specMem[i] && !specCtrl[i]
	}
	g.closures = fill(g.closures, len(g.specLoads)*n, false)
	for k, l := range g.specLoads {
		cl := g.closure(k)
		cl[l] = true
		for i := l + 1; i < n; i++ {
			if isBarrierLoad(i) {
				continue
			}
			in := &b.Insts[i]
			if in.A.Kind == ir.OpInst && cl[in.A.Inst] {
				cl[i] = true
			}
			if !in.IsLoad() && in.B.Kind == ir.OpInst && cl[in.B.Inst] {
				cl[i] = true
			}
		}
		for m, v := range cl {
			if v {
				inAnyClosure[m] = true
			}
		}
	}

	// A node's result goes to a hidden register (published by a commit
	// at its original position) when it may execute speculatively —
	// hoisted above a branch, or part of an lds forward slice — and for
	// every load: renaming load results decouples them from the WAW/WAR
	// chains of recycled guest temporaries, which would otherwise
	// serialize exactly the latency-critical operations. Stores,
	// branches and barriers never produce register results.
	for i := 0; i < n; i++ {
		if b.Insts[i].DestArch == ir.TempDest {
			// Mitigation temporaries live only in hidden registers and
			// are never committed (no commit node below).
			hiddenDest[i] = true
			continue
		}
		if b.Insts[i].DestArch <= 0 {
			continue
		}
		if specCtrl[i] || inAnyClosure[i] || b.Insts[i].IsLoad() {
			hiddenDest[i] = true
		}
	}

	// Hidden registers are allocated after scheduling (live-range based
	// linear scan in emit); here nodes are only marked.

	// Instruction nodes.
	for i := range b.Insts {
		in := &b.Insts[i]
		k := syllKindFor(in)
		if specMem[i] {
			k = vliw.KLoadS
		} else if specCtrl[i] && in.IsLoad() {
			k = vliw.KLoadD
		} else if in.IsLoad() && inAnyClosure[i] && !isBarrierLoad(i) {
			k = vliw.KLoadD // dependent load replayed by recovery: dismissable
		}
		node := schedNode{
			kind: nInst, irIdx: i, pos: i,
			sylKind:    k,
			cap:        vliw.CapFor(k, in.Op),
			specCtrl:   specCtrl[i],
			specMem:    specMem[i],
			hiddenDest: hiddenDest[i],
		}
		if specMem[i] {
			node.tag = uint8(g.specRow[i])
		}
		syl := vliw.Syllable{Kind: k, Op: in.Op}
		node.lat = cfg.Latency(&syl)
		if node.cap == 0 {
			node.cap = vliw.CapALU
		}
		g.nodes = append(g.nodes, node)
	}

	// IR ordering edges (hard, or relaxable-but-unexploited).
	hoisted := false
	for _, e := range b.Edges {
		if e.Relaxable {
			switch e.Kind {
			case ir.EdgeCtrl:
				if specCtrl[e.To] {
					g.droppedBranches[e.To] = append(g.droppedBranches[e.To], e.From)
					hoisted = true
					continue // exploited: hoisting allowed
				}
			case ir.EdgeMem:
				if specMem[e.To] {
					g.droppedStores[e.To] = append(g.droppedStores[e.To], e.From)
					continue // exploited: MCB speculation
				}
			}
		}
		g.addDep(e.To, e.From, 1)
	}

	// Data dependencies from operands.
	for i := range b.Insts {
		in := &b.Insts[i]
		for _, op := range [2]ir.Operand{in.A, in.B} {
			if op.Kind == ir.OpInst {
				g.addDep(i, op.Inst, g.nodes[op.Inst].lat)
			}
		}
	}

	// Helper index lists.
	branchPos := g.branchPos[:0] // branches and terminators, in program order
	storePos := g.storePos[:0]
	barrierPos := g.barrierPos[:0]
	for i := range b.Insts {
		in := &b.Insts[i]
		if in.IsBranch() || in.Op == riscv.JALR {
			branchPos = append(branchPos, i)
		}
		if in.IsStore() {
			storePos = append(storePos, i)
		}
		if in.IsBarrier() {
			barrierPos = append(barrierPos, i)
		}
	}
	g.branchPos, g.storePos, g.barrierPos = branchPos, storePos, barrierPos

	// Architectural-register writers, in program order. Commit node ids
	// are patched in once created; a reused slot keeps its chkPins
	// storage.
	for i := 0; i < n; i++ {
		d := b.Insts[i].DestArch
		if d <= 0 {
			continue
		}
		node := i
		if hiddenDest[i] {
			node = -1
		}
		ws := slices.Grow(g.writersOf[d], 1)[:len(g.writersOf[d])+1]
		w := &ws[len(ws)-1]
		*w = writer{pos: i, node: node, inst: i, chkPins: w.chkPins[:0]}
		g.writersOf[d] = ws
	}
	nextWriterAfter := func(r int8, pos int) *writer {
		for k := range g.writersOf[r] {
			if g.writersOf[r][k].pos > pos {
				return &g.writersOf[r][k]
			}
		}
		return nil
	}
	firstWriter := func(r int8) *writer {
		if ws := g.writersOf[r]; len(ws) > 0 {
			return &ws[0]
		}
		return nil
	}

	// Chk nodes for MCB-speculated loads.
	for k, i := range g.specLoads {
		id := len(g.nodes)
		g.nodes = append(g.nodes, schedNode{
			kind: nChk, irIdx: i, pos: i,
			sylKind: vliw.KChk, cap: vliw.CapALU, lat: 1,
			tag: uint8(k),
		})
		g.chkOf[i] = id
		g.addDep(id, i, 1) // after the load issues
		for _, s := range g.droppedStores[i] {
			g.addDep(id, s, 1) // after every store it speculated across
		}
		for _, bp := range branchPos {
			if bp < i {
				g.addDep(id, bp, 1) // stays in its region
			} else {
				g.addDep(bp, id, 1) // validates before any later exit
			}
		}
		for _, sp := range storePos {
			if sp > i {
				g.addDep(sp, id, 1) // later stores must not hit a stale entry
			}
		}
		for _, bp := range barrierPos {
			if bp > i {
				g.addDep(bp, id, 1)
			}
		}
		for _, prev := range g.specLoads[:k] {
			g.addDep(id, g.chkOf[prev], 1) // chks validate in program order
		}

		cl := g.closure(k)

		// Validation ordering: a non-speculative load whose address
		// derives from this lds must not execute until the chk has
		// validated (and possibly repaired) it. This is what makes the
		// GhostBusters guard dependency sound on this backend: a pinned
		// risky load runs strictly after recovery, so its first
		// execution never touches a secret-dependent line.
		for m := i + 1; m < n; m++ {
			if isBarrierLoad(m) && dependsThrough(b, m, cl) {
				g.addDep(m, id, 1)
			}
		}

		// Recovery liveness: every out-of-slice architectural input the
		// slice reads must survive unredefined until the chk. (Slice
		// results live in hidden registers, so writes need no pinning.)
		pinWriter := func(w *writer) {
			if w == nil {
				return
			}
			if w.node >= 0 {
				g.addDep(w.node, id, 1)
			} else {
				w.chkPins = append(w.chkPins, id)
			}
		}
		for m := 0; m < n; m++ {
			if !cl[m] {
				continue
			}
			in := &b.Insts[m]
			ops := [2]ir.Operand{in.A, in.B}
			for oi, op := range ops {
				if oi == 1 && in.IsLoad() {
					continue
				}
				switch op.Kind {
				case ir.OpRegIn:
					pinWriter(firstWriter(int8(op.Reg)))
				case ir.OpInst:
					j := op.Inst
					if cl[j] || hiddenDest[j] {
						continue // recomputed in the slice / hidden reg
					}
					pinWriter(nextWriterAfter(b.Insts[j].DestArch, j))
				}
			}
		}
	}

	// Commit nodes for hidden-destination instructions. TempDest
	// temporaries define no architectural register: nothing to publish.
	for i := 0; i < n; i++ {
		if !hiddenDest[i] || b.Insts[i].DestArch == ir.TempDest {
			continue
		}
		id := len(g.nodes)
		g.nodes = append(g.nodes, schedNode{
			kind: nCommit, irIdx: i, pos: i,
			sylKind: vliw.KCommit, cap: vliw.CapALU, lat: cfg.LatALU,
		})
		g.commitOf[i] = id
		g.addDep(id, i, g.nodes[i].lat)
		for _, bp := range branchPos {
			if bp < i {
				g.addDep(id, bp, 1) // not above the branches it crossed
			} else {
				g.addDep(bp, id, 0) // visible at any later exit (same bundle ok)
			}
		}
		// Publish only validated values: after the chk of every lds
		// whose speculative slice contains this instruction.
		for k, l := range g.specLoads {
			if g.closure(k)[i] {
				g.addDep(id, g.chkOf[l], 1)
			}
		}
		// Patch the writer table and apply deferred recovery pins.
		ws := g.writersOf[b.Insts[i].DestArch]
		for k := range ws {
			if ws[k].inst == i {
				ws[k].node = id
				for _, chk := range ws[k].chkPins {
					g.addDep(id, chk, 1)
				}
				ws[k].chkPins = ws[k].chkPins[:0]
			}
		}
	}

	// Apply deferred recovery pins that landed on direct writers.
	for _, ws := range g.writersOf {
		for k := range ws {
			if ws[k].node < 0 {
				return fmt.Errorf("dbt: writer of x%d at pos %d has no node", ws[k].inst, ws[k].pos)
			}
			for _, chk := range ws[k].chkPins {
				g.addDep(ws[k].node, chk, 1)
			}
			ws[k].chkPins = ws[k].chkPins[:0]
		}
	}

	// WAW ordering between successive writers of each arch register.
	for _, ws := range g.writersOf {
		for k := 1; k < len(ws); k++ {
			g.addDep(ws[k].node, ws[k-1].node, 1)
		}
	}
	// WAR: every reader of an architectural value must read before the
	// next writer of that register.
	for i := range b.Insts {
		in := &b.Insts[i]
		ops := [2]ir.Operand{in.A, in.B}
		for oi, op := range ops {
			if oi == 1 && in.IsLoad() {
				continue
			}
			switch op.Kind {
			case ir.OpRegIn:
				if w := firstWriter(int8(op.Reg)); w != nil {
					g.addDep(w.node, i, 0)
				}
			case ir.OpInst:
				j := op.Inst
				if hiddenDest[j] {
					continue // reads a hidden register: no WAR hazard
				}
				if w := nextWriterAfter(b.Insts[j].DestArch, j); w != nil {
					g.addDep(w.node, i, 0)
				}
			}
		}
	}

	// Late exits (Transmeta-style): a load hoisted above a side exit is
	// only useful if it actually issues before the exit resolves, so the
	// branches it speculated across wait for it. This is what "the load
	// instruction moved before a conditional branch" means in the
	// schedule — and it is the window the Spectre v1 attack lives in.
	// The floor computation keeps the graph acyclic: a branch is never
	// delayed behind a load that is itself (transitively) forced after
	// that branch.
	if hoisted {
		g.index()
		order, err := g.topoOrder()
		if err != nil {
			return err
		}
		floor := fill(g.floor, len(g.nodes), -1)
		g.floor = floor
		isBranchNode := func(id int) bool {
			nd := &g.nodes[id]
			if nd.kind != nInst {
				return false
			}
			in := &b.Insts[nd.irIdx]
			return in.IsBranch() || in.Op == riscv.JALR
		}
		for _, id := range order {
			f := floor[id]
			for _, p := range g.predsOf(id) {
				if isBranchNode(p.from) && g.nodes[p.from].pos > f {
					f = g.nodes[p.from].pos
				}
				if floor[p.from] > f {
					f = floor[p.from]
				}
			}
			floor[id] = f
		}
		for x, brs := range g.droppedBranches {
			if !b.Insts[x].IsLoad() {
				continue
			}
			for _, bi := range brs {
				if bi > floor[x] {
					g.addDep(bi, x, 1)
				}
			}
		}
	}

	g.index()
	return nil
}

// dependsThrough reports whether instruction m transitively consumes a
// value from the closure cl (walking only through its direct operands —
// m itself is outside cl).
func dependsThrough(b *ir.Block, m int, cl []bool) bool {
	in := &b.Insts[m]
	if in.A.Kind == ir.OpInst && cl[in.A.Inst] {
		return true
	}
	if !in.IsLoad() && in.B.Kind == ir.OpInst && cl[in.B.Inst] {
		return true
	}
	return false
}

// topoOrder returns a dependency-respecting order, erroring on cycles
// (which would indicate a construction bug). The order lives in g's
// scratch until the next call.
func (g *graph) topoOrder() ([]int, error) {
	nn := len(g.nodes)
	indeg := resize(g.indeg, nn)
	order, ready := g.topo[:0], g.ready[:0]
	for i := 0; i < nn; i++ {
		indeg[i] = g.predOff[i+1] - g.predOff[i]
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, id)
		for _, s := range g.succsOf(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	g.indeg, g.topo, g.ready = indeg, order, ready
	if len(order) != nn {
		return nil, fmt.Errorf("dbt: dependency cycle in scheduling graph (%d/%d ordered)", len(order), nn)
	}
	return order, nil
}

// schedule assigns each node a (bundle, slot) by greedy list scheduling:
// cycle by cycle, highest critical-path priority first, into the least
// capable free slot that supports the operation.
type placement struct {
	cycle int
	slot  int
}

// schedule returns the placement of every node, which lives in g's
// scratch until the next region, and the bundle count.
func (g *graph) schedule() ([]placement, int, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, 0, err
	}
	// Critical-path priority.
	for k := len(order) - 1; k >= 0; k-- {
		id := order[k]
		nd := &g.nodes[id]
		nd.prio = nd.lat
		for _, s := range g.succsOf(id) {
			if p := g.nodes[s].prio + nd.lat; p > nd.prio {
				nd.prio = p
			}
		}
	}

	// Slot preference: fewer capabilities first, so ALU work does not
	// occupy the memory or branch slot needlessly.
	slots := g.cfg.Slots
	slotOrder := resize(g.slotOrder, len(slots))
	for i := range slotOrder {
		slotOrder[i] = i
	}
	slices.SortStableFunc(slotOrder, func(a, b int) int {
		return cmp.Compare(bits.OnesCount8(uint8(slots[a])), bits.OnesCount8(uint8(slots[b])))
	})
	used := resize(g.used, len(slots))
	g.slotOrder, g.used = slotOrder, used

	// ready holds the nodes whose predecessors are all placed and that
	// are not placed themselves, in the order they became ready. A
	// node's earliest cycle is fixed by then, so it is computed once,
	// when its last predecessor is placed.
	nn := len(g.nodes)
	place := fill(g.place, nn, placement{cycle: -1})
	remaining := resize(g.remaining, nn)
	earliest := resize(g.earliest, nn)
	ready := g.ready[:0]
	for i := 0; i < nn; i++ {
		remaining[i] = g.predOff[i+1] - g.predOff[i]
		if remaining[i] == 0 {
			earliest[i] = 0
			ready = append(ready, i)
		}
	}
	unscheduled := nn

	cycle := 0
	const maxCycles = 1 << 16
	for unscheduled > 0 {
		if cycle > maxCycles {
			return nil, 0, fmt.Errorf("dbt: scheduler did not converge")
		}
		// Candidates whose dependencies are satisfied by this cycle.
		cand := g.cand[:0]
		for _, id := range ready {
			if earliest[id] <= cycle {
				cand = append(cand, id)
			}
		}
		g.cand = cand
		slices.SortStableFunc(cand, func(a, b int) int {
			na, nb := &g.nodes[a], &g.nodes[b]
			if na.prio != nb.prio {
				return cmp.Compare(nb.prio, na.prio)
			}
			return cmp.Compare(na.pos, nb.pos)
		})
		clear(used)
		for _, id := range cand {
			nd := &g.nodes[id]
			for _, s := range slotOrder {
				if used[s] || slots[s]&nd.cap == 0 {
					continue
				}
				used[s] = true
				place[id] = placement{cycle: cycle, slot: s}
				unscheduled--
				for _, succ := range g.succsOf(id) {
					remaining[succ]--
					if remaining[succ] != 0 {
						continue
					}
					e := 0
					for _, p := range g.predsOf(succ) {
						if pc := place[p.from].cycle + int(p.lat); pc > e {
							e = pc
						}
					}
					earliest[succ] = e
					ready = append(ready, succ)
				}
				break
			}
		}
		// Drop the nodes placed this cycle, keeping the others' order.
		kept := ready[:0]
		for _, id := range ready {
			if place[id].cycle == -1 {
				kept = append(kept, id)
			}
		}
		ready = kept
		cycle++
	}
	g.place, g.remaining, g.earliest, g.ready = place, remaining, earliest, ready

	numBundles := 0
	for _, p := range place {
		if p.cycle+1 > numBundles {
			numBundles = p.cycle + 1
		}
	}
	return place, numBundles, nil
}
