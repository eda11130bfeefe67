package pipeline

import (
	"sort"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
)

// fenceMin places the minimal number of pins that cuts every
// source→sink path in the poison data-flow graph, Blade-style, instead
// of pinning every sink the way ghostbusters does.
//
// Sources are speculative loads that generate poison; sinks are
// speculative accesses whose address that poison reaches (the Spectre
// pattern). Any source→sink flow can be cut on either end: pin the
// sink (ghostbusters' choice) or pin the source — a pinned source
// reads architecturally-correct data, so every address derived from it
// is clean and the sinks it fed may keep their speculative schedule.
// When one source feeds many sinks, cutting at the source needs one
// pin where ghostbusters needs many. The optimal selection is a
// minimum vertex cover of the bipartite source/sink graph, obtained
// via maximum matching (Kuhn) and König's theorem.
//
// Covered sinks get the full ghostbusters treatment (pin + guard
// edges); covered pure sources only need their relaxable in-edges
// pinned. A sink left uncovered is safe because every source feeding
// it is covered; a source left uncovered only feeds covered sinks.
func fenceMin(b *ir.Block, rep *core.Report, _ map[int][]int, _ *ir.AuditReport) {
	sinkSrcs, sinkGuards := poisonFlow(b)
	if len(sinkSrcs) == 0 {
		return
	}

	cover := minVertexCover(sinkSrcs)
	for _, node := range cover {
		if guards, isSink := sinkGuards[node]; isSink {
			rep.GuardEdges += core.PinRisky(b, node, guards)
		} else {
			b.PinInto(node)
		}
	}
}

// poisonFlow runs the poison propagation tracking, for every sink, the
// set of sources whose poison reaches its address and the guard set
// the mitigation must order it after. It mirrors core's analysis with
// one deliberate difference: a sink's own value stays poisoned (with
// the sink itself as a fresh source), because the min-cut may leave
// the sink speculating — only core's analysis, which always pins every
// sink, may assume a pinned access reads clean data.
func poisonFlow(b *ir.Block) (sinkSrcs map[int][]int, sinkGuards map[int][]int) {
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

// minVertexCover computes a minimum vertex cover of the bipartite
// sink/source graph via Kuhn's maximum matching and König's theorem,
// returning the covered instruction indices sorted. All iteration
// orders are sorted, so the cover is deterministic.
func minVertexCover(sinkSrcs map[int][]int) []int {
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
