package dbt_test

import (
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// compileAllocBudget bounds the heap objects one compilation of the
// Spectre v1 PoC's hottest trace makes under ghostbusters once the
// scheduler memory is warm: the measured 31 (go1.24, linux/amd64) plus
// a tolerance of 4 for small changes in the mitigation passes, which
// make most of them. Scheduler tables that grow back into per-region
// maps or per-node edge slices cost well over 4; a graph rebuilt per
// region costs ~290.
const compileAllocBudget = 31 + 4

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

	// Compiling mutates the IR (mitigation): every compilation gets its
	// own front-end copy, built before the count starts.
	const runs = 50
	type region struct {
		b          *ir.Block
		guestInsts int
	}
	regions := make([]region, runs+3) // two warm-ups, AllocsPerRun's own
	for i := range regions {
		b, gi, err := m.RegionIR(pc, true)
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = region{b, gi}
	}
	g := new(dbt.SchedMemory)
	next := 0
	compile := func() {
		r := regions[next]
		next++
		if _, err := dbt.CompileThrough(g, r.b, r.guestInsts, &cfg.Core, cfg.Mitigation); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	compile()
	n := testing.AllocsPerRun(runs, compile)
	t.Logf("compiling the v1 trace at %#x (%d IR insts) allocates %.0f objects", pc, len(regions[0].b.Insts), n)
	if n > compileAllocBudget {
		t.Errorf("compiling the v1 trace allocates %.0f objects, budget %d", n, compileAllocBudget)
	}
}
