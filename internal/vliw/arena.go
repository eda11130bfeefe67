package vliw

import (
	"slices"
	"unsafe"
)

// arenaChunkBytes is the size of one arena chunk, whatever it holds: an
// arena costs a machine that translates little a few chunks, not a
// table sized for the largest workload.
const arenaChunkBytes = 16 << 10

// Arena holds the translated blocks one machine builds: their headers,
// syllables, bundle slots, recovery starts and dispatch tables, each
// kind in chunks of its own. A chunk never moves once made, so a block
// stays valid until Reset, which zeroes everything handed out and keeps
// the chunks for the next machine; Rewind does the same back to a Mark.
//
// A block built here must not outlive the arena's next Reset; Clone
// copies one onto the heap. Reset leaves every header it zeroed marked,
// so a block executed after Reset panics instead of running as an empty
// block, until the arena hands its header out again.
type Arena struct {
	blocks chunks[Block]
	tables chunks[decoded]
	syls   chunks[Syllable]
	slots  chunks[Slots]
	recs   chunks[uint16]
	ops    chunks[dop]
}

// ArenaMark is a position in an Arena (see Mark).
type ArenaMark struct {
	blocks, tables, syls, slots, recs, ops chunkMark
}

// released is the dispatch table of a block header its arena zeroed:
// Exec panics on it rather than run the header as an empty block.
var released decoded

// NewBlock returns a zeroed block header.
func (a *Arena) NewBlock() *Block {
	b := &a.blocks.alloc(1)[0]
	b.dec.Store(nil) // Reset left the released mark
	return b
}

// Syls returns n zeroed syllables.
func (a *Arena) Syls(n int) []Syllable {
	return a.syls.alloc(n)
}

// Slots returns n zeroed bundle slots.
func (a *Arena) Slots(n int) []Slots {
	return a.slots.alloc(n)
}

// RecStart returns n zeroed recovery starts.
func (a *Arena) RecStart(n int) []uint16 {
	return a.recs.alloc(n)
}

// Prepare builds b's threaded-dispatch table in the arena, unless b has
// one already, so that the first dispatch of b does not pay for it. b
// must live in the arena too: a table here must not outlive its block's
// Reset, nor a block its table's.
func (a *Arena) Prepare(b *Block) {
	if b.dec.Load() != nil {
		return
	}
	d := &a.tables.alloc(1)[0]
	d.ops = buildDecoded(b, a.ops.alloc(dopCount(b))[:0])
	b.dec.Store(d)
}

// Mark returns the arena's current position.
func (a *Arena) Mark() ArenaMark {
	return ArenaMark{a.blocks.mark(), a.tables.mark(), a.syls.mark(), a.slots.mark(), a.recs.mark(), a.ops.mark()}
}

// Rewind zeroes what the arena handed out since m and hands it out
// again.
func (a *Arena) Rewind(m ArenaMark) {
	a.blocks.rewind(m.blocks, func(b *Block) { b.dec.Store(&released) })
	a.tables.rewind(m.tables, nil)
	a.syls.rewind(m.syls, nil)
	a.slots.rewind(m.slots, nil)
	a.recs.rewind(m.recs, nil)
	a.ops.rewind(m.ops, nil)
}

// Reset zeroes everything the arena handed out and keeps its chunks.
func (a *Arena) Reset() { a.Rewind(ArenaMark{}) }

// ArenaUse counts what an arena holds: its blocks, syllables, bundle
// slots, recovery starts and dispatch ops handed out, and the bytes of
// all its chunks.
type ArenaUse struct {
	Blocks, Syls, Slots, RecStarts, Ops int
	Bytes                               int
}

// Use reports what the arena holds.
func (a *Arena) Use() ArenaUse {
	return ArenaUse{
		Blocks: a.blocks.n, Syls: a.syls.n, Slots: a.slots.n, RecStarts: a.recs.n, Ops: a.ops.n,
		Bytes: a.blocks.bytes() + a.tables.bytes() + a.syls.bytes() + a.slots.bytes() + a.recs.bytes() + a.ops.bytes(),
	}
}

// Clone returns a copy of b on the heap, its dispatch table included
// when b has one. Dops index their block's syllables and hold no
// pointer into it, so the table copies as plain memory. The copy does
// not depend on the arena b was built in.
func (b *Block) Clone() *Block {
	c := &Block{
		EntryPC:    b.EntryPC,
		Syls:       slices.Clone(b.Syls),
		Slots:      slices.Clone(b.Slots),
		Width:      b.Width,
		RecStart:   slices.Clone(b.RecStart),
		FallPC:     b.FallPC,
		GuestInsts: b.GuestInsts,
	}
	if d := b.dec.Load(); d != nil {
		c.dec.Store(&decoded{ops: slices.Clone(d.ops)})
	}
	return c
}

// chunks hands out slices of T from chunks of about arenaChunkBytes (one
// request larger than that gets a chunk of its own size).
type chunks[T any] struct {
	cs  [][]T
	c   int // the chunk being filled
	off int // elements of cs[c] handed out
	n   int // elements handed out in all
}

// chunkMark is a position in chunks.
type chunkMark struct{ c, off, n int }

// alloc returns n zeroed elements. The slice's capacity is n, so an
// append to it never reaches a neighbour.
func (a *chunks[T]) alloc(n int) []T {
	if n == 0 {
		return []T{}
	}
	for a.c < len(a.cs) && a.off+n > len(a.cs[a.c]) {
		a.c, a.off = a.c+1, 0
	}
	if a.c == len(a.cs) {
		var zero T
		a.cs = append(a.cs, make([]T, max(arenaChunkBytes/int(unsafe.Sizeof(zero)), n)))
	}
	s := a.cs[a.c][a.off : a.off+n : a.off+n]
	a.off += n
	a.n += n
	return s
}

func (a *chunks[T]) mark() chunkMark { return chunkMark{a.c, a.off, a.n} }

// rewind zeroes what was handed out since m, passes each element it
// zeroed to mark when that is not nil, and goes back to m.
func (a *chunks[T]) rewind(m chunkMark, mark func(*T)) {
	for c := m.c; c <= a.c && c < len(a.cs); c++ {
		lo, hi := 0, len(a.cs[c])
		if c == m.c {
			lo = m.off
		}
		if c == a.c {
			hi = a.off
		}
		clear(a.cs[c][lo:hi])
		for i := lo; mark != nil && i < hi; i++ {
			mark(&a.cs[c][i])
		}
	}
	a.c, a.off, a.n = m.c, m.off, m.n
}

// bytes is the size of every chunk made.
func (a *chunks[T]) bytes() int {
	var zero T
	n := 0
	for _, c := range a.cs {
		n += len(c)
	}
	return n * int(unsafe.Sizeof(zero))
}
