package detect

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/trap"
)

// The acceptance gate: across the full corpus — every polybench
// kernel (benign) and both Spectre variants under every mitigation
// mode — the detector must catch every truth-leaking run and never
// alarm on a benign kernel. Run under -race with 8 workers this also
// pins the per-cell detector isolation contract.
func TestEvalFullMatrix(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}
	var started, finished atomic.Int64
	r := &harness.Runner{
		Workers:   8,
		Artifacts: harness.NewArtifacts(),
		OnCell: func(u harness.CellUpdate) {
			if u.Done {
				finished.Add(1)
			} else {
				started.Add(1)
			}
		},
	}
	doc, err := Eval(context.Background(), r, dbt.DefaultConfig(), EvalConfig{KernelN: n})
	if err != nil {
		t.Fatal(err)
	}

	nModes := len(core.Modes())
	wantCells := (len(polybench.All()) + 2) * nModes
	if doc.Schema != EvalSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, EvalSchema)
	}
	if len(doc.Cells) != wantCells {
		t.Errorf("cells = %d, want %d", len(doc.Cells), wantCells)
	}
	if got := started.Load(); got != int64(wantCells) {
		t.Errorf("OnCell starts = %d, want %d", got, wantCells)
	}
	if got := finished.Load(); got != int64(wantCells) {
		t.Errorf("OnCell finishes = %d, want %d", got, wantCells)
	}

	s := doc.Summary
	if s.TruthPositives < 2 {
		t.Fatalf("truth positives = %d, want >= 2 (unsafe v1+v4); corpus broken", s.TruthPositives)
	}
	if s.Recall != 1.0 {
		t.Errorf("recall = %v, want 1.0 — missed leaking runs:\n%s", s.Recall, doc.Table())
	}
	if s.BenignAlarms != 0 {
		t.Errorf("benign alarms = %d, want 0:\n%s", s.BenignAlarms, doc.Table())
	}
	for _, c := range doc.Cells {
		if c.Report == nil || c.Report.Schema != ReportSchema {
			t.Fatalf("cell %s/%s: missing or mis-schemed report", c.Bench, c.Mode)
		}
		if c.Class == "benign" && c.TruthLeak {
			t.Fatalf("cell %s/%s: benign cell labeled as leaking", c.Bench, c.Mode)
		}
	}
	t.Logf("recall %d/%d, benign %d cells %d alarms, blocked flagged %d/%d, mean latency %+.0f",
		s.TruePositives, s.TruthPositives, s.BenignCells, s.BenignAlarms,
		s.BlockedAttackAlarms, s.BlockedAttackCells, s.MeanAlarmLatencyCycles)
}

// The evaluation document must be byte-identical at any worker count:
// per-cell detectors see only their own machine's stream, and cell
// order is deterministic.
func TestEvalDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("two full matrix sweeps")
	}
	run := func(workers int) []byte {
		doc, err := Eval(context.Background(), &harness.Runner{Workers: workers, Artifacts: harness.NewArtifacts()},
			dbt.DefaultConfig(), EvalConfig{KernelN: 4})
		if err != nil {
			t.Fatal(err)
		}
		j, err := doc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if seq, par := run(1), run(8); !bytes.Equal(seq, par) {
		t.Error("eval doc differs between 1 and 8 workers")
	}
}

// Eval runs on the caller's Runner, so every Runner knob reaches the
// sweep: here the translation cache (cold: every cell misses) and the
// span root (one "cell" child per bench × mode).
func TestEvalRunsOnCallersRunner(t *testing.T) {
	var buf bytes.Buffer
	spans := hspan.New(hspan.NewJSONLSink(&buf))
	root := spans.Start("matrix")
	cache := tcache.New(t.TempDir())
	r := &harness.Runner{Workers: 2, TransCache: cache, Span: root}
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	modes := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters}
	doc, err := Eval(context.Background(), r, dbt.DefaultConfig(),
		EvalConfig{KernelN: 4, Kernels: []polybench.Kernel{k}, Modes: modes})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := spans.Close(); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := cache.Stats(); misses == 0 {
		t.Error("the Runner's translation cache saw no lookups")
	}
	recs, err := hspan.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tree := hspan.BuildTree(recs)
	if len(tree) != 1 {
		t.Fatalf("span roots = %d, want 1", len(tree))
	}
	cells := map[string]int{}
	for _, c := range tree[0].Children {
		if c.Name == "cell" {
			b, _ := c.Attr("bench")
			m, _ := c.Attr("mode")
			cells[b.Str+"|"+m.Str]++
		}
	}
	if len(cells) != len(doc.Cells) {
		t.Errorf("cell spans = %v, want one per each of %d cells", cells, len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if n := cells[c.Bench+"|"+c.Mode]; n != 1 {
			t.Errorf("cell %s/%s has %d spans, want 1", c.Bench, c.Mode, n)
		}
	}
}

// Observe hands a successful attempt's verdict to done, and a failed
// attempt's partial run (not the trap's cycle stamp) to the Runner,
// which meters it in Row.Spent.
func TestObserve(t *testing.T) {
	for _, tc := range []struct {
		name      string
		err       error
		wantDone  int
		wantSpent uint64
	}{
		{"success", nil, 1, 77},
		{"failed-attempt", &trap.Fault{Kind: trap.CacheFault, Cycle: 1}, 0, 77},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var done int
			b := Observe(harness.Bench{
				Name: "partial",
				Run: func(_ context.Context, cfg dbt.Config, _ *harness.Artifacts) (*harness.KernelRun, error) {
					if !cfg.Tracer.SpecOn() {
						t.Error("no spec-level tracer attached")
					}
					return &harness.KernelRun{Name: "partial", Mode: cfg.Mitigation, Cycles: 77}, tc.err
				},
			}, Config{}, func(_ dbt.Config, rep *Report) {
				if rep == nil || rep.Schema != ReportSchema {
					t.Errorf("done got report %+v", rep)
				}
				done++
			})
			r := &harness.Runner{Workers: 1}
			rows, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(),
				[]harness.Bench{b}, []core.Mode{core.ModeUnsafe})
			if (err != nil) != (tc.err != nil) {
				t.Fatalf("RunMatrix error = %v, want %v", err, tc.err)
			}
			if done != tc.wantDone {
				t.Errorf("done called %d times, want %d", done, tc.wantDone)
			}
			if got := rows[0].Spent[core.ModeUnsafe]; got != tc.wantSpent {
				t.Errorf("Spent = %d, want %d", got, tc.wantSpent)
			}
		})
	}
}
