//go:build !race

// The race runtime drops sync.Pool puts at random, so fmt's printer
// cache misses and allocation counts vary from run to run under -race.

package harness

import (
	"context"
	"runtime"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/tcache"
)

// The tolerances over the measured counts below. A data-cache line
// array (6 KiB) or a copy of a paper-size output made per cell again
// exceeds the byte margin, and a PoC assembly or an entry allocated per
// installed region exceeds both.
const (
	cellObjMargin  = 4
	cellByteMargin = 2048
)

// TestWarmCellAllocs pins what one warm Figure 4 cell allocates: a
// paper-size kernel cell and a PoC cell, each run before it is
// measured, so the in-memory translation cache holds its regions, the
// PoC's program is memoised and a released machine waits on the spare
// list. Measured on go1.24, linux/amd64: 3 objects and ~2.2 KB for gemm
// (the Machine, the run's Result and the cell's KernelRun; the bus store
// hook is bound once per reused translation state), 19 objects and ~5.6
// KB for spectre-v1 (the same plus the attack's source text, scoreboard
// and result). Keying the translation cache allocates nothing (the
// program memoises its image digest, the machine's reused translation
// state holds the configuration fingerprint), and neither does keying
// the artifact cache.
func TestWarmCellAllocs(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = core.ModeGhostBusters
	cfg.TransCache = tcache.New("")
	testCellAllocs(t, "warm", cfg, []cellBudget{
		{KernelBench(k, 0), 3, 2240},
		{SpectreBench(attack.V1, attack.Params{Secret: []byte{0x5A, 0xC3}}), 19, 5636},
	})
}

// TestColdCellAllocs pins what one cold Figure 4 cell allocates: the
// same cells with no translation cache, so each compiles every region
// it runs, on a spare set that an earlier run of the cell grew. The
// compile memory, the region slab and the code arena are all reused, so
// a cold cell allocates what a warm one does (measured on go1.24,
// linux/amd64: 3 objects and ~2.2 KB for gemm, 19 and ~5.6 KB for
// spectre-v1). Building the installed regions' blocks or dispatch
// tables on the heap again exceeds both budgets.
func TestColdCellAllocs(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = core.ModeGhostBusters
	testCellAllocs(t, "cold", cfg, []cellBudget{
		{KernelBench(k, 0), 3, 2240},
		{SpectreBench(attack.V1, attack.Params{Secret: []byte{0x5A, 0xC3}}), 19, 5636},
	})
}

// cellBudget is a cell and the objects and bytes it is measured to
// allocate.
type cellBudget struct {
	bench        Bench
	objs, nbytes uint64
}

// testCellAllocs measures each cell under cfg after one run of it, and
// fails when it allocates more than its budget plus the margins.
func testCellAllocs(t *testing.T, kind string, cfg dbt.Config, cells []cellBudget) {
	arts := NewArtifacts()
	for _, c := range cells {
		run := func() {
			if _, err := c.bench.Run(context.Background(), cfg, arts); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		objs := testing.AllocsPerRun(runs, run) // runs once more first
		// AllocsPerRun counts objects only; the bytes come from the
		// same counters over another set of runs.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		nbytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("a %s %s cell allocates %.0f objects, %d bytes", kind, c.bench.Name, objs, nbytes)
		if objs > float64(c.objs+cellObjMargin) {
			t.Errorf("a %s %s cell allocates %.0f objects, budget %d", kind, c.bench.Name, objs, c.objs+cellObjMargin)
		}
		if nbytes > c.nbytes+cellByteMargin {
			t.Errorf("a %s %s cell allocates %d bytes, budget %d", kind, c.bench.Name, nbytes, c.nbytes+cellByteMargin)
		}
	}
}
