package vliw

import (
	"testing"

	"ghostbusters/internal/riscv"
)

// steadyStateBlock is a representative translated block: immediates, ALU
// work, a speculative (MCB) load with its chk, a store and a not-taken
// side exit — the mix a Fig. 4 kernel inner loop compiles to.
func steadyStateBlock(cfg Config) *Block {
	return &Block{
		EntryPC: 0x100,
		FallPC:  0x200,
		Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KMovI, Dst: 5, Imm: 0x20000},
				Syllable{Kind: KMovI, Dst: 6, Imm: 3}),
			pad(cfg,
				Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 7, Ra: 5, Tag: 0},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 8, Ra: 6, Imm: 4}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 5, Rb: 8, Imm: 64}),
			pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: -1}),
			pad(cfg, Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 9, Ra: 7, Rb: 8}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BEQ, Ra: 9, Rb: 0, Imm: 0x300}),
		},
		GuestInsts: 7,
	}
}

// The steady-state Exec path must not allocate: scratch buffers live on
// the Core and are reused across calls. This is the 0 allocs/op gate the
// perf work promises.
func TestExecSteadyStateZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := steadyStateBlock(cfg)
	b := newTestBus()
	var regs [NumRegs]uint64
	var cycles uint64

	// Warm-up: first calls may grow the scratch slices to capacity.
	for i := 0; i < 3; i++ {
		if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
			t.Fatal(ei.Fault)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
			t.Fatal(ei.Fault)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Exec allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkExecSteadyState(b *testing.B) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := steadyStateBlock(cfg)
	bs := newTestBus()
	var regs [NumRegs]uint64
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ei := c.Exec(blk, &regs, bs, &cycles); ei.Fault != nil {
			b.Fatal(ei.Fault)
		}
	}
}

// Decoding reads the image in place and backs every bundle and recovery
// with one syllable slice: four allocations per block (the Block, the
// syllables, the bundle and recovery headers) whatever its size.
func TestDecodeBlockAllocs(t *testing.T) {
	blk := steadyStateBlock(DefaultConfig())
	blk.Recoveries = [][]Syllable{
		{{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 5, GuestPC: 0x108}},
		{{Kind: KAluRR, Op: riscv.ADD, Dst: 9, Ra: 7, Rb: 8, GuestPC: 0x110}},
	}
	words, err := EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	full, err := AppendBlock(nil, blk)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeBlock(words) }); n != 4 {
		t.Errorf("DecodeBlock allocates %.0f objects, want 4", n)
	}
	if n := testing.AllocsPerRun(100, func() { ConsumeBlock(full) }); n != 4 {
		t.Errorf("ConsumeBlock allocates %.0f objects, want 4", n)
	}
}

// Prepare sizes the threaded-dispatch table exactly (one op per non-nop
// syllable plus one terminator per bundle), so building it allocates two
// objects whatever the block's size: the table and its op slice.
func TestPrepareAllocs(t *testing.T) {
	cfg := DefaultConfig()
	const runs = 100
	blks := make([]*Block, runs+1) // AllocsPerRun adds a warm-up call
	for i := range blks {
		blks[i] = steadyStateBlock(cfg)
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		blks[next].Prepare()
		next++
	})
	if n != 2 {
		t.Errorf("Prepare allocates %.0f objects on a fresh block, want 2", n)
	}
	if d := blks[0].decoded(); len(d.ops) != cap(d.ops) {
		t.Errorf("dispatch table holds %d ops in a capacity of %d, want an exact fit", len(d.ops), cap(d.ops))
	}
}
