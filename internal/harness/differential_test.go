package harness

import (
	"context"
	"testing"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
)

// The predecode side table is a host-side accelerator: every guest-
// visible quantity must be bit-identical with it disabled. This
// differential test runs the entire Figure 4 matrix (every kernel plus
// both Spectre applications) and the Section V-A proof-of-concept
// matrix both ways and compares cycles, statistics and the rendered
// tables byte for byte.
func TestPredecodeDifferential(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}

	runFig4 := func(disable bool) ([]*Row, string, string) {
		t.Helper()
		cfg := dbt.DefaultConfig()
		cfg.DisablePredecode = disable
		r := &Runner{Artifacts: NewArtifacts()}
		rows, err := r.Fig4(context.Background(), cfg, Fig4Modes, n)
		if err != nil {
			t.Fatalf("fig4 (predecode disabled=%v): %v", disable, err)
		}
		return rows, FormatRows(rows, Fig4Modes), CSV(rows, Fig4Modes)
	}

	rowsOn, tableOn, csvOn := runFig4(false)
	rowsOff, tableOff, csvOff := runFig4(true)

	if tableOn != tableOff {
		t.Errorf("rendered Figure 4 tables differ:\npredecode on:\n%s\npredecode off:\n%s", tableOn, tableOff)
	}
	if csvOn != csvOff {
		t.Errorf("Figure 4 CSVs differ:\npredecode on:\n%s\npredecode off:\n%s", csvOn, csvOff)
	}
	if len(rowsOn) != len(rowsOff) {
		t.Fatalf("row counts differ: %d vs %d", len(rowsOn), len(rowsOff))
	}
	for i := range rowsOn {
		on, off := rowsOn[i], rowsOff[i]
		if on.Name != off.Name {
			t.Fatalf("row %d name: %q vs %q", i, on.Name, off.Name)
		}
		for _, m := range Fig4Modes {
			if on.Cycles[m] != off.Cycles[m] {
				t.Errorf("%s (%s): cycles %d with predecode, %d without",
					on.Name, m, on.Cycles[m], off.Cycles[m])
			}
			// The predecode counters describe the accelerator itself
			// (hits/fills of the host-side table), so they naturally
			// differ between the two runs; every other field is
			// guest-visible and must match exactly.
			sOn, sOff := on.Stats[m], off.Stats[m]
			sOn.Pred = riscv.PredecodeStats{}
			sOff.Pred = riscv.PredecodeStats{}
			if sOn != sOff {
				t.Errorf("%s (%s): stats diverge:\non:  %+v\noff: %+v",
					on.Name, m, sOn, sOff)
			}
		}
	}

	// The attack outcomes (leaked bytes per variant and mode) must also
	// be identical: the side channel lives in simulated time, which the
	// table must not perturb.
	pocTable := func(disable bool) string {
		t.Helper()
		cfg := dbt.DefaultConfig()
		cfg.DisablePredecode = disable
		table, lm, err := (&Runner{}).PoCMatrix(context.Background(), cfg)
		if err != nil {
			t.Fatalf("poc matrix (predecode disabled=%v): %v", disable, err)
		}
		if len(lm.Cells) == 0 {
			t.Fatal("poc matrix produced no cells")
		}
		return table
	}
	if on, off := pocTable(false), pocTable(true); on != off {
		t.Errorf("PoC matrices differ:\npredecode on:\n%s\npredecode off:\n%s", on, off)
	}

	// Sanity: an accelerated run actually uses the table (otherwise this
	// test proves nothing). Run one kernel by hand and inspect the
	// counters — the interpreter warm-up phase must hit the table.
	cfg := dbt.DefaultConfig()
	k := polybench.All()[0]
	art, err := NewArtifacts().Kernel(k, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dbt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Load(art.Prog); err != nil {
		t.Fatal(err)
	}
	for i, a := range art.Spec.Arrays {
		if err := art.place[i].Init(m.Mem(), art.Spec.Inputs[a.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st := m.PredecodeStats(); st.Hits == 0 || st.Fills == 0 {
		t.Errorf("predecode table unused during a kernel run: %+v", st)
	}
}

// Direct block chaining is the dispatch layer of the fast backend:
// each region caches links to its successors' records, so every
// guest-visible quantity — cycles, statistics, rendered tables, attack
// outcomes — must be bit-identical with the links off (a map lookup
// per transfer). Unlike the predecode
// differential there is nothing to mask: chaining owns no counters.
func TestChainingDifferential(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}

	runFig4 := func(disable bool) ([]*Row, string, string) {
		t.Helper()
		cfg := dbt.DefaultConfig()
		cfg.DisableChaining = disable
		r := &Runner{Artifacts: NewArtifacts()}
		rows, err := r.Fig4(context.Background(), cfg, Fig4Modes, n)
		if err != nil {
			t.Fatalf("fig4 (chaining disabled=%v): %v", disable, err)
		}
		return rows, FormatRows(rows, Fig4Modes), CSV(rows, Fig4Modes)
	}

	rowsOn, tableOn, csvOn := runFig4(false)
	rowsOff, tableOff, csvOff := runFig4(true)

	if tableOn != tableOff {
		t.Errorf("rendered Figure 4 tables differ:\nchaining on:\n%s\nchaining off:\n%s", tableOn, tableOff)
	}
	if csvOn != csvOff {
		t.Errorf("Figure 4 CSVs differ:\nchaining on:\n%s\nchaining off:\n%s", csvOn, csvOff)
	}
	if len(rowsOn) != len(rowsOff) {
		t.Fatalf("row counts differ: %d vs %d", len(rowsOn), len(rowsOff))
	}
	for i := range rowsOn {
		on, off := rowsOn[i], rowsOff[i]
		for _, m := range Fig4Modes {
			if on.Cycles[m] != off.Cycles[m] {
				t.Errorf("%s (%s): cycles %d chained, %d unchained",
					on.Name, m, on.Cycles[m], off.Cycles[m])
			}
			if on.Stats[m] != off.Stats[m] {
				t.Errorf("%s (%s): stats diverge:\nchained:   %+v\nunchained: %+v",
					on.Name, m, on.Stats[m], off.Stats[m])
			}
		}
	}

	// The attack outcomes (leaked bits per variant and mode) must be
	// identical: the side channel lives in simulated time, which the
	// dispatch strategy must not perturb.
	pocTable := func(disable bool) string {
		t.Helper()
		cfg := dbt.DefaultConfig()
		cfg.DisableChaining = disable
		table, lm, err := (&Runner{}).PoCMatrix(context.Background(), cfg)
		if err != nil {
			t.Fatalf("poc matrix (chaining disabled=%v): %v", disable, err)
		}
		if len(lm.Cells) == 0 {
			t.Fatal("poc matrix produced no cells")
		}
		return table
	}
	if on, off := pocTable(false), pocTable(true); on != off {
		t.Errorf("PoC matrices differ:\nchaining on:\n%s\nchaining off:\n%s", on, off)
	}
}

// The persistent translation cache must be invisible in guest time: a
// cold cached sweep, a fully warm sweep and an uncached sweep all
// render the same Figure 4 byte for byte. Only the engine-side counters
// (Translations, TCacheHits/Misses) may differ.
func TestTransCacheDifferential(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}

	runFig4 := func(tc *tcache.Cache, arts *Artifacts) ([]*Row, string, string) {
		t.Helper()
		r := &Runner{Artifacts: arts, TransCache: tc}
		rows, err := r.Fig4(context.Background(), dbt.DefaultConfig(), Fig4Modes, n)
		if err != nil {
			t.Fatalf("fig4 (tcache=%v): %v", tc != nil, err)
		}
		return rows, FormatRows(rows, Fig4Modes), CSV(rows, Fig4Modes)
	}

	rowsBase, tableBase, csvBase := runFig4(nil, NewArtifacts())
	tc := tcache.New("")
	arts := NewArtifacts()
	rowsCold, tableCold, csvCold := runFig4(tc, arts)
	rowsWarm, tableWarm, csvWarm := runFig4(tc, arts)

	hits, misses, _ := tc.Stats()
	if misses == 0 {
		t.Fatal("cold sweep never missed — the cache was not consulted")
	}
	if hits < misses {
		t.Errorf("warm sweep hit only %d of %d compiled regions", hits, misses)
	}
	for i := range rowsWarm {
		for _, m := range Fig4Modes {
			if tr := rowsWarm[i].Stats[m].Translations; tr != 0 {
				t.Errorf("%s (%s): warm sweep still compiled %d regions", rowsWarm[i].Name, m, tr)
			}
		}
	}

	for name, got := range map[string][2]string{
		"cold": {tableCold, csvCold},
		"warm": {tableWarm, csvWarm},
	} {
		if got[0] != tableBase {
			t.Errorf("%s cached Figure 4 table differs from uncached:\n%s\nvs\n%s", name, got[0], tableBase)
		}
		if got[1] != csvBase {
			t.Errorf("%s cached Figure 4 CSV differs from uncached:\n%s\nvs\n%s", name, got[1], csvBase)
		}
	}
	zero := func(s dbt.Stats) dbt.Stats {
		s.Translations = 0
		s.TCacheHits = 0
		s.TCacheMisses = 0
		return s
	}
	for i := range rowsBase {
		for _, m := range Fig4Modes {
			b, c, w := rowsBase[i], rowsCold[i], rowsWarm[i]
			if b.Cycles[m] != c.Cycles[m] || b.Cycles[m] != w.Cycles[m] {
				t.Errorf("%s (%s): cycles %d uncached, %d cold, %d warm",
					b.Name, m, b.Cycles[m], c.Cycles[m], w.Cycles[m])
			}
			if zero(c.Stats[m]) != zero(b.Stats[m]) || zero(w.Stats[m]) != zero(b.Stats[m]) {
				t.Errorf("%s (%s): stats diverge under the cache:\nuncached: %+v\ncold:     %+v\nwarm:     %+v",
					b.Name, m, zero(b.Stats[m]), zero(c.Stats[m]), zero(w.Stats[m]))
			}
		}
	}
}
