package pipeline

import (
	"math/bits"

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
func fenceMin(b *ir.Block, _ core.Report, _ [][]int, mem *Memory, _ *ir.AuditReport) int {
	f := &mem.flow
	f.poisonFlow(b)
	if len(f.sinks) == 0 {
		return 0
	}
	f.minVertexCover()

	added := 0
	for v := range f.n {
		if !f.zSrc[v] && (f.sinkAddr[v] < 0 || f.zSink[v]) {
			continue // not in the cover
		}
		if f.sinkAddr[v] >= 0 {
			f.list = appendMembers(f.list[:0], f.guards(v))
			added += core.PinRisky(b, v, f.list)
		} else {
			b.PinInto(v)
		}
	}
	return added
}

// flowMem is fence-min's reusable memory: the poison flow as bitset
// rows over the block's instructions, and the matching's tables. Every
// table is index-addressed and keeps its backing array from one block
// to the next. It shares no code with core.Analysis, whose sink rules
// differ (see poisonFlow).
type flowMem struct {
	n, words int
	// rows holds three rows of words per instruction: the poison
	// sources reaching its value (srcs), the speculation causes that
	// poison is conditional on (guards), and the relaxable in-edges of
	// a load (self).
	rows []uint64
	// sinkAddr[i] is the instruction that computes sink i's address, -1
	// when i is no sink; sinks lists the sinks in program order. A
	// sink's sources are srcs(sinkAddr[i]) and its guards guards(i).
	sinkAddr []int
	sinks    []int

	// The matching (-1 when unmatched) and König's alternating search.
	matchOfSink, matchOfSrc []int
	visited, zSink, zSrc    []bool
	queue                   []int

	list []int // a sink's guard list, as PinRisky takes it
}

func (f *flowMem) row(k, i int) []uint64 {
	lo := (k*f.n + i) * f.words
	return f.rows[lo : lo+f.words]
}

func (f *flowMem) srcs(i int) []uint64   { return f.row(0, i) }
func (f *flowMem) guards(i int) []uint64 { return f.row(1, i) }
func (f *flowMem) self(i int) []uint64   { return f.row(2, i) }

// poisonFlow runs the poison propagation tracking, for every sink, the
// set of sources whose poison reaches its address and the guard set
// the mitigation must order it after. It mirrors core's analysis with
// one deliberate difference: a sink's own value stays poisoned (with
// the sink itself as a fresh source), because the min-cut may leave
// the sink speculating — only core's analysis, which always pins every
// sink, may assume a pinned access reads clean data.
func (f *flowMem) poisonFlow(b *ir.Block) {
	n := len(b.Insts)
	f.n, f.words = n, (n+63)/64
	f.rows = resize(f.rows, 3*n*f.words)
	clear(f.rows)
	f.sinkAddr = fill(f.sinkAddr, n, -1)
	f.sinks = f.sinks[:0]
	for _, e := range b.Edges {
		if e.Relaxable && b.Insts[e.To].IsLoad() {
			setMember(f.self(e.To), e.From)
		}
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		s, g := f.srcs(i), f.guards(i)
		f.flowFrom(s, g, in.A)
		if !in.IsLoad() { // a load's B operand is unused; stores leak via address only
			f.flowFrom(s, g, in.B)
			continue
		}
		self := f.self(i)
		if empty(self) {
			continue
		}
		union(g, self)
		if in.A.Kind == ir.OpInst && !empty(f.srcs(in.A.Inst)) {
			// The Spectre pattern. Record the flow; the value stays
			// poisoned with i as a fresh source (see doc comment).
			f.sinkAddr[i] = in.A.Inst
			f.sinks = append(f.sinks, i)
			clear(s)
		}
		// A clean-address speculative load is a poison source, and so
		// is a sink.
		setMember(s, i)
	}
}

// flowFrom adds what reaches operand op to the rows s and g.
func (f *flowMem) flowFrom(s, g []uint64, op ir.Operand) {
	if op.Kind == ir.OpInst {
		union(s, f.srcs(op.Inst))
		union(g, f.guards(op.Inst))
	}
}

// minVertexCover computes a minimum vertex cover of the bipartite
// sink/source graph via Kuhn's maximum matching and König's theorem:
// the cover is the sinks zSink leaves out and the sources zSrc holds.
// Sinks and sources are visited in ascending order, so the cover is
// deterministic.
func (f *flowMem) minVertexCover() {
	n := f.n
	f.matchOfSink = fill(f.matchOfSink, n, -1)
	f.matchOfSrc = fill(f.matchOfSrc, n, -1)
	f.visited = resize(f.visited, n)
	for _, t := range f.sinks {
		clear(f.visited)
		f.augment(t)
	}

	// König: alternate from unmatched sinks (non-matching edge to a
	// source, matching edge back to a sink). Cover = sinks not reached
	// ∪ sources reached.
	f.zSink = fill(f.zSink, n, false)
	f.zSrc = fill(f.zSrc, n, false)
	queue := f.queue[:0]
	for _, t := range f.sinks {
		if f.matchOfSink[t] < 0 {
			f.zSink[t] = true
			queue = append(queue, t)
		}
	}
	for h := 0; h < len(queue); h++ {
		t := queue[h]
		srcs := f.srcs(f.sinkAddr[t])
		for s := nextMember(srcs, 0); s >= 0; s = nextMember(srcs, s+1) {
			if f.matchOfSink[t] == s || f.zSrc[s] {
				continue
			}
			f.zSrc[s] = true
			if u := f.matchOfSrc[s]; u >= 0 && !f.zSink[u] {
				f.zSink[u] = true
				queue = append(queue, u)
			}
		}
	}
	f.queue = queue
}

// augment looks for an augmenting path from sink t (Kuhn).
func (f *flowMem) augment(t int) bool {
	srcs := f.srcs(f.sinkAddr[t])
	for s := nextMember(srcs, 0); s >= 0; s = nextMember(srcs, s+1) {
		if f.visited[s] {
			continue
		}
		f.visited[s] = true
		if u := f.matchOfSrc[s]; u < 0 || f.augment(u) {
			f.matchOfSrc[s] = t
			f.matchOfSink[t] = s
			return true
		}
	}
	return false
}

// Bitset rows: bit i of row[i/64] is instruction i.

func setMember(row []uint64, i int) { row[i/64] |= 1 << (i % 64) }

func union(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

func empty(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return false
		}
	}
	return true
}

// nextMember returns the first member of row at or after i, or -1.
func nextMember(row []uint64, i int) int {
	for w := i / 64; w < len(row); w++ {
		word := row[w]
		if w == i/64 {
			word &= ^uint64(0) << (i % 64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// appendMembers appends row's members to dst in ascending order.
func appendMembers(dst []int, row []uint64) []int {
	for i := nextMember(row, 0); i >= 0; i = nextMember(row, i+1) {
		dst = append(dst, i)
	}
	return dst
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
