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
	warmCellObjMargin  = 4
	warmCellByteMargin = 2048
)

// TestWarmCellAllocs pins what one warm Figure 4 cell allocates: a
// paper-size kernel cell and a PoC cell, each run before it is
// measured, so the in-memory translation cache holds its regions, the
// PoC's program is memoised and a released machine waits on the spare
// list. Measured on go1.24,
// linux/amd64: 4 objects and ~2.3 KB for gemm (the Machine, its bus
// store hook, the run's Result and the cell's KernelRun), 20 objects
// and ~5.8 KB for spectre-v1 (the same plus the attack's source text,
// scoreboard and result). Keying the translation cache allocates nothing (the program
// memoises its image digest, the machine's reused translation state
// holds the configuration fingerprint), and neither does keying the
// artifact cache.
func TestWarmCellAllocs(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = core.ModeGhostBusters
	cfg.TransCache = tcache.New("")
	arts := NewArtifacts()
	for _, c := range []struct {
		bench        Bench
		objs, nbytes uint64
	}{
		{KernelBench(k, 0), 4, 2256},
		{SpectreBench(attack.V1, attack.Params{Secret: []byte{0x5A, 0xC3}}), 20, 5848},
	} {
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
		t.Logf("a warm %s cell allocates %.0f objects, %d bytes", c.bench.Name, objs, nbytes)
		if objs > float64(c.objs+warmCellObjMargin) {
			t.Errorf("a warm %s cell allocates %.0f objects, budget %d", c.bench.Name, objs, c.objs+warmCellObjMargin)
		}
		if nbytes > c.nbytes+warmCellByteMargin {
			t.Errorf("a warm %s cell allocates %d bytes, budget %d", c.bench.Name, nbytes, c.nbytes+warmCellByteMargin)
		}
	}
}
