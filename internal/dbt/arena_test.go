package dbt

import (
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/vliw"
)

// runKernel runs polybench kernel name at size n (0: its default size)
// on a new machine of cfg and returns the machine, not yet released.
func runKernel(t *testing.T, cfg Config, name string, n int) (*Machine, *Result) {
	t.Helper()
	k, err := polybench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		n = k.DefaultN
	}
	spec, err := k.Make(n)
	if err != nil {
		t.Fatal(err)
	}
	prog := riscv.MustAssemble(spec.Source)
	place, err := kbuild.Resolve(prog, spec.Arrays)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	for i, a := range spec.Arrays {
		if err := place[i].Init(m.Mem(), spec.Inputs[a.Name]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m, res
}

// A block a machine publishes to the translation cache must outlive
// the machine: the cache gets a copy, not the block in the machine's
// arena, which the next machine of the spare set overwrites. A kernel
// runs cold on a memory cache and is released, another program runs
// cold on the same spare set, and the kernel then runs warm on the
// published blocks: cycles, stats and every block's rendering must be
// the cold run's.
func TestPublishedBlockOutlivesCompiler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemSize += 31 << 12 // a geometry of this test's own
	cfg.Mitigation = core.ModeGhostBusters
	cfg.TransCache = tcache.New("")

	m1, cold := runKernel(t, cfg, "gemm", 8)
	if cold.Stats.Translations == 0 {
		t.Fatal("the cold run translated nothing")
	}
	blocks := map[uint64]string{}
	for _, pc := range m1.TranslatedPCs() {
		blocks[pc] = m1.BlockAt(pc).String()
	}
	img := m1.Mem()
	m1.Release()

	other := cfg
	other.TransCache = nil
	m2, _ := runKernel(t, other, "atax", 8)
	if m2.Mem() != img {
		t.Fatal("the second machine did not reuse the released spare set")
	}
	if m2.code.Use().Blocks == 0 {
		t.Fatal("the second machine built no block in the reused arena")
	}
	m2.Release()

	m3, warm := runKernel(t, cfg, "gemm", 8)
	defer m3.Release()
	if m3.Mem() != img {
		t.Fatal("the warm machine did not reuse the released spare set")
	}
	if warm.Stats.Translations != 0 || warm.Stats.TCacheHits != cold.Stats.Translations {
		t.Fatalf("warm run: %d translations, %d hits; the cold run compiled %d",
			warm.Stats.Translations, warm.Stats.TCacheHits, cold.Stats.Translations)
	}
	if warm.Cycles != cold.Cycles {
		t.Errorf("warm run took %d cycles, cold %d", warm.Cycles, cold.Cycles)
	}
	if got, want := zeroTCacheStats(warm.Stats), zeroTCacheStats(cold.Stats); got != want {
		t.Errorf("warm stats diverge from cold:\n%+v\n%+v", got, want)
	}
	if pcs := m3.TranslatedPCs(); len(pcs) != len(blocks) {
		t.Errorf("warm run installed %d regions, cold %d", len(pcs), len(blocks))
	}
	for pc, want := range blocks {
		if blk := m3.BlockAt(pc); blk == nil || blk.String() != want {
			t.Errorf("published block %#x now renders\n%v\nwant\n%s", pc, blk, want)
		}
	}
}

// A try of the code generator that fails leaves nothing in the arena:
// gemm's hottest trace overflows the hidden registers under unsafe with
// full speculation, and the arena must then hold the final block alone.
func TestFailedTryRewindsArena(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mitigation = core.ModeUnsafe
	m, _ := runKernel(t, cfg, "gemm", 0)
	defer m.Release()
	const pc = 0x100ac
	if _, trace := m.TranslatedAt(pc); !trace {
		t.Fatalf("gemm has no trace at %#x", pc)
	}

	// The first try, with full speculation, overflows.
	b, guestInsts, err := m.frontEnd(&m.front, pc, true)
	if err != nil {
		t.Fatal(err)
	}
	g := &graph{code: new(vliw.Arena)}
	if err := g.buildGraph(b, &cfg.Core, true, true); err != nil {
		t.Fatal(err)
	}
	place, numBundles, err := g.schedule()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.emit(place, numBundles, guestInsts); err != errHiddenOverflow {
		t.Fatalf("the full-speculation try ends in %v, want %v", err, errHiddenOverflow)
	}

	before := m.code.Use()
	e := m.compile(pc, true)
	if e == nil {
		t.Fatal("the trace did not compile")
	}
	after := m.code.Use()
	blk := e.Block
	got := [...]int{after.Blocks - before.Blocks, after.Syls - before.Syls, after.Slots - before.Slots,
		after.RecStarts - before.RecStarts, after.Ops - before.Ops}
	want := [...]int{1, len(blk.Syls), len(blk.Slots), len(blk.RecStart), 0}
	if got != want {
		t.Fatalf("compiling the trace grew the arena by %v (blocks, syllables, slots, recovery starts, ops), want %v",
			got, want)
	}
}
