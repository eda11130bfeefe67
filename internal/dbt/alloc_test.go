package dbt_test

import (
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// compileAllocBudget bounds the heap objects one compilation of the
// Spectre v1 PoC's hottest trace makes under ghostbusters on a warm
// machine, from the guest PC through the front end, the analysis, the
// mitigation, scheduling and emit: the measured 0 (go1.24, linux/amd64)
// plus a tolerance of 2. The block, its bundle slots and its syllables
// come from the machine's code arena, which allocates a chunk only every
// few dozen compilations, and its transEntry from the region slab. A
// block built on the heap again costs 3, and a builder, analysis or
// scheduling graph allocated per region instead of reused costs more.
const compileAllocBudget = 0 + 2

func TestCompileAllocsPerRegion(t *testing.T) {
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = core.ModeGhostBusters
	src, err := attack.Source(attack.V1, cfg, attack.Params{Secret: []byte{0x6B, 0xD4}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dbt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Load(riscv.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var pc uint64
	for _, r := range m.ProfileReport() { // hottest first
		if r.IsTrace {
			pc = r.PC
			break
		}
	}
	if pc == 0 {
		t.Fatal("the v1 PoC installed no trace")
	}

	var blk *vliw.Block
	compile := func() {
		var err error
		if _, blk, err = m.CompileRegion(pc, true, false); err != nil {
			t.Fatal(err)
		}
	}
	compile() // the run left the compile memory warm; make sure of it
	n := testing.AllocsPerRun(50, compile)
	t.Logf("compiling the v1 trace at %#x (%d guest insts, %d bundles) allocates %.0f objects",
		pc, blk.GuestInsts, len(blk.Slots), n)
	if n > compileAllocBudget {
		t.Errorf("compiling the v1 trace allocates %.0f objects, budget %d", n, compileAllocBudget)
	}
}
