package vliw

import (
	"reflect"
	"testing"

	"ghostbusters/internal/riscv"
)

// inArena copies src into a, dispatch table included, the way the
// DBT's code generator and install build a block there.
func inArena(a *Arena, src *Block) *Block {
	b := a.NewBlock()
	b.EntryPC, b.FallPC, b.GuestInsts, b.Width = src.EntryPC, src.FallPC, src.GuestInsts, src.Width
	b.Syls = a.Syls(len(src.Syls))
	copy(b.Syls, src.Syls)
	if src.Slots != nil {
		b.Slots = a.Slots(len(src.Slots))
		copy(b.Slots, src.Slots)
	}
	if src.RecStart != nil {
		b.RecStart = a.RecStart(len(src.RecStart))
		copy(b.RecStart, src.RecStart)
	}
	a.Prepare(b)
	return b
}

// otherBlock is a block unlike steadyStateBlock, to refill an arena.
func otherBlock(cfg Config) *Block {
	return testBlock{
		EntryPC: 0x400,
		FallPC:  0x500,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KMovI, Dst: 9, Imm: 77}),
			pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 9, Ra: 9, Imm: 1}),
		},
		GuestInsts: 2,
	}.pack()
}

// execOnce runs blk on a fresh core, register file and bus.
func execOnce(cfg Config, blk *Block) (ExitInfo, [NumRegs]uint64, uint64) {
	var regs [NumRegs]uint64
	var cycles uint64
	ei := MustNewCore(cfg).Exec(blk, &regs, newTestBus(), &cycles)
	return ei, regs, cycles
}

// A block built in an arena runs like its heap form; a clone taken
// before Reset still does after the arena holds other code; and the
// block itself, used after Reset, panics instead of running as an empty
// block or as whatever the arena holds next.
func TestArenaBlockLifetime(t *testing.T) {
	cfg := DefaultConfig()
	heap := steadyStateBlock(cfg).pack()
	wantEI, wantRegs, wantCycles := execOnce(cfg, heap)

	a := new(Arena)
	blk := inArena(a, heap)
	if !reflect.DeepEqual(blk.Syls, heap.Syls) || !reflect.DeepEqual(blk.Slots, heap.Slots) {
		t.Fatal("the arena copy differs from the heap block")
	}
	ei, regs, cycles := execOnce(cfg, blk)
	if ei != wantEI || regs != wantRegs || cycles != wantCycles {
		t.Fatalf("arena block ran to %+v after %d cycles, heap block to %+v after %d", ei, cycles, wantEI, wantCycles)
	}
	clone := blk.Clone()
	if clone.dec.Load() == nil || &clone.decoded().ops[0] == &blk.decoded().ops[0] {
		t.Fatal("the clone does not own a copy of the dispatch table")
	}

	a.Reset()
	if u := a.Use(); u.Blocks != 0 || u.Syls != 0 || u.Ops != 0 {
		t.Fatalf("after Reset the arena still hands out %+v", u)
	}
	if len(blk.Syls) != 0 || len(blk.Slots) != 0 {
		t.Fatal("Reset left the released header its code")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a block used after its arena's Reset ran")
			}
		}()
		execOnce(cfg, blk)
	}()

	other := otherBlock(cfg)
	if again := inArena(a, other); again != blk {
		t.Fatal("the arena did not hand its first header out again")
	}
	ei, regs, cycles = execOnce(cfg, clone)
	if ei != wantEI || regs != wantRegs || cycles != wantCycles {
		t.Fatalf("clone ran to %+v after %d cycles over reused arena memory, want %+v after %d", ei, cycles, wantEI, wantCycles)
	}
	if got, want := clone.String(), heap.String(); got != want {
		t.Fatalf("clone renders\n%s\nwant\n%s", got, want)
	}
}

// Rewind gives back exactly what was handed out since the mark, zeroed;
// Reset keeps every chunk, so refilling the arena allocates nothing.
func TestArenaRewindAndReuse(t *testing.T) {
	cfg := DefaultConfig()
	a := new(Arena)
	first := inArena(a, steadyStateBlock(cfg).pack())
	mark, before := a.Mark(), a.Use()
	dropped := inArena(a, otherBlock(cfg))
	a.Rewind(mark)
	if u := a.Use(); u != before {
		t.Fatalf("after Rewind the arena holds %+v, want %+v", u, before)
	}
	if len(dropped.Syls) != 0 || len(first.Syls) == 0 {
		t.Fatal("Rewind did not zero exactly what followed the mark")
	}

	// A request larger than a chunk gets a chunk of its own size.
	const big = 3 * arenaChunkBytes / 24 // syllables
	if s := a.Syls(big); len(s) != big || cap(s) != big {
		t.Fatalf("a request of %d syllables got len %d cap %d", big, len(s), cap(s))
	}
	src := steadyStateBlock(cfg).pack()
	refill := func() {
		a.Reset()
		inArena(a, src)
		a.Syls(big)
		inArena(a, src)
	}
	refill()
	grown := a.Use().Bytes
	if n := testing.AllocsPerRun(20, refill); n != 0 {
		t.Fatalf("refilling a reset arena allocates %.0f objects", n)
	}
	if got := a.Use().Bytes; got != grown {
		t.Fatalf("the arena grew from %d to %d bytes refilling the same sizes", grown, got)
	}
}
