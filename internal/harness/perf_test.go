package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghostbusters/internal/core"
)

func perfRow(name string, cycles uint64) *Row {
	r := newRow(name)
	r.Cycles[core.ModeUnsafe] = cycles
	r.HostNS[core.ModeUnsafe] = 123
	return r
}

func TestPerfRoundTrip(t *testing.T) {
	rows := []*Row{perfRow("gemm", 1000), perfRow("atax", 2000)}
	rep := PerfFromRows(rows, []core.Mode{core.ModeUnsafe})
	if rep.Schema != PerfSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Entries) != 2 || rep.Entries[0].SimCycles != 1000 || rep.Entries[0].HostNS != 123 {
		t.Fatalf("entries: %+v", rep.Entries)
	}
	// Measured cells embed the full metrics snapshot, consistent with
	// the headline sim_cycles figure.
	if rep.Entries[0].Metrics == nil || rep.Entries[0].Metrics["sim.cycles"] != 1000 {
		t.Fatalf("metrics snapshot missing or inconsistent: %+v", rep.Entries[0].Metrics)
	}

	path := filepath.Join(t.TempDir(), "perf.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPerf(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != rep.Schema || len(back.Entries) != 2 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range back.Entries {
		g, w := back.Entries[i], rep.Entries[i]
		if g.Benchmark != w.Benchmark || g.Mode != w.Mode ||
			g.SimCycles != w.SimCycles || g.HostNS != w.HostNS || !g.Metrics.Equal(w.Metrics) {
			t.Fatalf("round trip mismatch at entry %d:\n%+v\n%+v", i, g, w)
		}
	}
}

// An old baseline without the metrics field still loads (the field is
// optional) — the regression check never depends on it.
func TestReadPerfAcceptsBaselineWithoutMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	old := `{"schema":"ghostbusters/bench/v1","entries":[{"benchmark":"gemm","mode":"unsafe","sim_cycles":1000,"host_ns":1}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadPerf(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Metrics != nil {
		t.Fatalf("unexpected entries: %+v", rep.Entries)
	}
}

func TestReadPerfRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	rep := &PerfReport{Schema: "ghostbusters/bench/v0"}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPerf(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
}

func TestCheckPerf(t *testing.T) {
	baseline := &PerfReport{Schema: PerfSchema, Entries: []PerfEntry{
		{Benchmark: "gemm", Mode: "unsafe", SimCycles: 1000},
		{Benchmark: "atax", Mode: "unsafe", SimCycles: 500},
	}}

	// Identical cycles pass; host time differences are irrelevant.
	same := &PerfReport{Schema: PerfSchema, Entries: []PerfEntry{
		{Benchmark: "gemm", Mode: "unsafe", SimCycles: 1000, HostNS: 99999},
		{Benchmark: "atax", Mode: "unsafe", SimCycles: 500},
	}}
	if err := CheckPerf(same, baseline); err != nil {
		t.Fatalf("identical cycles flagged: %v", err)
	}

	// New benchmarks without expectations pass.
	extra := &PerfReport{Schema: PerfSchema, Entries: []PerfEntry{
		{Benchmark: "gemm", Mode: "unsafe", SimCycles: 1000},
		{Benchmark: "atax", Mode: "unsafe", SimCycles: 500},
		{Benchmark: "new-kernel", Mode: "unsafe", SimCycles: 1 << 40},
	}}
	if err := CheckPerf(extra, baseline); err != nil {
		t.Fatalf("unbaselined benchmark flagged: %v", err)
	}

	// A lower count is flagged too: guest timing changed, so the
	// baseline must be re-recorded.
	fewer := &PerfReport{Schema: PerfSchema, Entries: []PerfEntry{
		{Benchmark: "gemm", Mode: "unsafe", SimCycles: 999},
		{Benchmark: "atax", Mode: "unsafe", SimCycles: 500},
	}}
	if err := CheckPerf(fewer, baseline); err == nil || !strings.Contains(err.Error(), "gemm") {
		t.Fatalf("a lower count is not flagged: %v", err)
	}

	// A single extra cycle is a regression, and a dropped benchmark is
	// an error, and both are reported together.
	worse := &PerfReport{Schema: PerfSchema, Entries: []PerfEntry{
		{Benchmark: "gemm", Mode: "unsafe", SimCycles: 1001},
	}}
	err := CheckPerf(worse, baseline)
	if err == nil {
		t.Fatal("regression not flagged")
	}
	if !strings.Contains(err.Error(), "gemm") || !strings.Contains(err.Error(), "atax") {
		t.Fatalf("expected both violations in error, got: %v", err)
	}
}
