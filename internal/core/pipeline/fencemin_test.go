package pipeline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// TestFenceMinMatchesReference checks fence-min's bitset poison flow and
// matching, run through one reused Memory, against the map-based form
// they replaced, on random blocks whose loads take their addresses from
// earlier values: both must insert the same guard edges and leave the
// same edges. The Figure 4 kernels have no Spectre pattern, so this is
// where the min-cut's sink side gets exercised.
func TestFenceMinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	mem := new(Memory)
	multi := 0
	for trial := range 2000 {
		b := fenceMinBlock(r)
		want := cloneBlock(b)
		wantAdded := refFenceMin(want)
		rep, pins := mem.analysis.AnalyzePins(b, nil)
		got := fenceMin(b, rep, pins, mem, nil)
		if got != wantAdded || !reflect.DeepEqual(b.Edges, want.Edges) {
			t.Fatalf("trial %d: %d guard edges, want %d\nedges %v\nwant  %v", trial, got, wantAdded, b.Edges, want.Edges)
		}
		if len(mem.flow.sinks) > 1 {
			multi++
		}
	}
	t.Logf("%d blocks with two sinks or more", multi)
	if multi < 200 {
		t.Fatalf("only %d of 2000 blocks have two sinks or more", multi)
	}
}

// fenceMinBlock builds a random block of loads, ALU work, stores and
// branches over a few registers, so loads often take poisoned
// addresses.
func fenceMinBlock(r *rand.Rand) *ir.Block {
	bu := ir.NewBuilder(0x1000)
	reg := func() uint8 { return uint8(5 + r.Intn(6)) }
	for i := range 8 + r.Intn(60) {
		pc := uint64(0x1000 + 4*i)
		switch k := r.Intn(10); {
		case k < 4:
			bu.Emit(ir.Inst{Op: riscv.LD, A: bu.Reg(reg()), Imm: int64(8 * r.Intn(4)), DestArch: int8(reg()), PC: pc})
		case k < 6:
			bu.Emit(ir.Inst{Op: riscv.ADD, A: bu.Reg(reg()), B: bu.Reg(reg()), DestArch: int8(reg()), PC: pc})
		case k < 7:
			bu.Emit(ir.Inst{Op: riscv.SLLI, A: bu.Reg(reg()), Imm: 3, DestArch: int8(reg()), PC: pc})
		case k < 8:
			bu.Emit(ir.Inst{Op: riscv.SD, A: bu.Reg(reg()), B: bu.Reg(reg()), DestArch: -1, PC: pc})
		default:
			bu.Emit(ir.Inst{Op: riscv.BLTU, A: bu.Reg(reg()), B: bu.Reg(reg()), DestArch: -1, PC: pc, BranchExit: 0x8000 + pc})
		}
	}
	return bu.Block()
}

func cloneBlock(b *ir.Block) *ir.Block {
	cp := *b
	cp.Insts = append([]ir.Inst(nil), b.Insts...)
	cp.Edges = append([]ir.Edge(nil), b.Edges...)
	return &cp
}

// refFenceMin is fenceMin as it was before its tables became reusable.
func refFenceMin(b *ir.Block) int {
	sinkSrcs, sinkGuards := refPoisonFlow(b)
	if len(sinkSrcs) == 0 {
		return 0
	}
	added := 0
	for _, node := range refMinVertexCover(sinkSrcs) {
		if guards, isSink := sinkGuards[node]; isSink {
			added += core.PinRisky(b, node, guards)
		} else {
			b.PinInto(node)
		}
	}
	return added
}

// refPoisonFlow is poisonFlow on maps and sorted copies.
func refPoisonFlow(b *ir.Block) (sinkSrcs map[int][]int, sinkGuards map[int][]int) {
	n := len(b.Insts)
	type set map[int]struct{}
	union := func(dst, src set) set {
		if len(src) == 0 {
			return dst
		}
		if dst == nil {
			dst = make(set, len(src))
		}
		for k := range src {
			dst[k] = struct{}{}
		}
		return dst
	}
	sorted := func(s set) []int {
		out := make([]int, 0, len(s))
		for k := range s {
			out = append(out, k)
		}
		sort.Ints(out)
		return out
	}

	selfGuards := make([]set, n)
	for _, e := range b.Edges {
		if e.Relaxable && b.Insts[e.To].IsLoad() {
			if selfGuards[e.To] == nil {
				selfGuards[e.To] = make(set)
			}
			selfGuards[e.To][e.From] = struct{}{}
		}
	}

	srcs := make([]set, n)   // poison origins reaching each value
	guards := make([]set, n) // speculation causes that poison is conditional on
	opSrcs := func(op ir.Operand) set {
		if op.Kind == ir.OpInst {
			return srcs[op.Inst]
		}
		return nil
	}
	opGuards := func(op ir.Operand) set {
		if op.Kind == ir.OpInst {
			return guards[op.Inst]
		}
		return nil
	}

	sinkSrcs = make(map[int][]int)
	sinkGuards = make(map[int][]int)
	for i := range b.Insts {
		in := &b.Insts[i]
		var s, g set
		s = union(s, opSrcs(in.A))
		g = union(g, opGuards(in.A))
		if !in.IsLoad() { // a load's B operand is unused; stores leak via address only
			s = union(s, opSrcs(in.B))
			g = union(g, opGuards(in.B))
		}
		if in.IsLoad() && len(selfGuards[i]) > 0 {
			if len(opSrcs(in.A)) > 0 {
				// The Spectre pattern. Record the flow; the value stays
				// poisoned with i as a fresh source (see doc comment).
				sinkSrcs[i] = sorted(opSrcs(in.A))
				var pg set
				pg = union(pg, opGuards(in.A))
				pg = union(pg, selfGuards[i])
				sinkGuards[i] = sorted(pg)
				srcs[i] = set{i: {}}
				guards[i] = pg
				continue
			}
			// Clean-address speculative load: a poison source.
			s = union(s, set{i: {}})
			g = union(g, selfGuards[i])
		}
		srcs[i], guards[i] = s, g
	}
	return sinkSrcs, sinkGuards
}

// refMinVertexCover is minVertexCover on maps.
func refMinVertexCover(sinkSrcs map[int][]int) []int {
	sinks := make([]int, 0, len(sinkSrcs))
	for t := range sinkSrcs {
		sinks = append(sinks, t)
	}
	sort.Ints(sinks)

	matchOfSink := map[int]int{} // sink -> matched source
	matchOfSrc := map[int]int{}  // source -> matched sink
	var augment func(t int, visited map[int]bool) bool
	augment = func(t int, visited map[int]bool) bool {
		for _, s := range sinkSrcs[t] {
			if visited[s] {
				continue
			}
			visited[s] = true
			u, taken := matchOfSrc[s]
			if !taken || augment(u, visited) {
				matchOfSrc[s] = t
				matchOfSink[t] = s
				return true
			}
		}
		return false
	}
	for _, t := range sinks {
		augment(t, map[int]bool{})
	}

	// König: alternate from unmatched sinks (non-matching edge to a
	// source, matching edge back to a sink). Cover = sinks not reached
	// ∪ sources reached.
	zSink := map[int]bool{}
	zSrc := map[int]bool{}
	var queue []int
	for _, t := range sinks {
		if _, ok := matchOfSink[t]; !ok {
			zSink[t] = true
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, s := range sinkSrcs[t] {
			if matchOfSink[t] == s || zSrc[s] {
				continue
			}
			zSrc[s] = true
			if u, ok := matchOfSrc[s]; ok && !zSink[u] {
				zSink[u] = true
				queue = append(queue, u)
			}
		}
	}

	coverSet := map[int]bool{}
	for _, t := range sinks {
		if !zSink[t] {
			coverSet[t] = true
		}
	}
	for s := range zSrc {
		coverSet[s] = true
	}
	cover := make([]int, 0, len(coverSet))
	for v := range coverSet {
		cover = append(cover, v)
	}
	sort.Ints(cover)
	return cover
}
