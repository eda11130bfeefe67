package harness

import (
	"context"
	"strings"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
)

func TestRunSpecValidatesOutputs(t *testing.T) {
	spec, err := polybench.MakeGemm(8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunSpec(spec, dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 || run.Name != "gemm" {
		t.Fatalf("run = %+v", run)
	}
}

// An output name that is not declared in Arrays must surface as a
// descriptive error up front — not a nil-pointer panic mid-validation.
func TestRunSpecUndeclaredOutput(t *testing.T) {
	spec, err := polybench.MakeGemm(6)
	if err != nil {
		t.Fatal(err)
	}
	spec.Outputs = append(spec.Outputs, "ghost")
	_, err = RunSpec(spec, dbt.DefaultConfig())
	if err == nil {
		t.Fatal("RunSpec accepted an undeclared output")
	}
	if !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

// An output whose reference is missing, short or long must be rejected
// up front: the check would otherwise validate a prefix, nothing at all,
// or index past the guest array.
func TestRunSpecReferenceLength(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func([]int64) []int64
	}{
		{"missing", func([]int64) []int64 { return nil }},
		{"short", func(ref []int64) []int64 { return ref[:len(ref)-1] }},
		{"long", func(ref []int64) []int64 { return append(ref, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := polybench.MakeGemm(6)
			if err != nil {
				t.Fatal(err)
			}
			if ref := c.edit(spec.Expected["C"]); ref == nil {
				delete(spec.Expected, "C")
			} else {
				spec.Expected["C"] = ref
			}
			_, err = RunSpec(spec, dbt.DefaultConfig())
			if err == nil {
				t.Fatalf("RunSpec accepted a %s reference", c.name)
			}
			if !strings.Contains(err.Error(), `"C"`) || !strings.Contains(err.Error(), "36 elements") {
				t.Fatalf("error not descriptive: %v", err)
			}
		})
	}
}

// Slowdowns require the ModeUnsafe baseline: without it the Slowdown
// map stays empty and renderers print n/a rather than a bogus 0.0%.
func TestSlowdownRequiresBaseline(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	modes := []core.Mode{core.ModeGhostBusters, core.ModeNoSpeculation}
	row, err := RunKernel(k, 6, dbt.DefaultConfig(), modes)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Slowdown) != 0 {
		t.Fatalf("slowdowns computed without a baseline: %v", row.Slowdown)
	}
	table := FormatRows([]*Row{row}, modes)
	if !strings.Contains(table, "n/a") {
		t.Fatalf("table should render n/a without a baseline:\n%s", table)
	}
	if strings.Contains(table, "0.0%") {
		t.Fatalf("table renders a bogus 0.0%% slowdown:\n%s", table)
	}
	csv := CSV([]*Row{row}, modes)
	if !strings.Contains(csv, ",n/a,") {
		t.Fatalf("csv should render n/a without a baseline:\n%s", csv)
	}
	if strings.Contains(csv, ",0.0000,") {
		t.Fatalf("csv renders a bogus 0.0000 slowdown:\n%s", csv)
	}
}

func TestRunSpecDetectsWrongReference(t *testing.T) {
	spec, err := polybench.MakeGemm(6)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the expected output: RunSpec must fail.
	spec.Expected["C"][0]++
	if _, err := RunSpec(spec, dbt.DefaultConfig()); err == nil {
		t.Fatal("RunSpec accepted a wrong result")
	}
}

func TestRunKernelSlowdowns(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunKernel(k, 8, dbt.DefaultConfig(), Fig4Modes)
	if err != nil {
		t.Fatal(err)
	}
	if row.Slowdown[core.ModeUnsafe] != 1.0 {
		t.Fatalf("unsafe slowdown = %v, want 1.0", row.Slowdown[core.ModeUnsafe])
	}
	for _, m := range Fig4Modes {
		if row.Cycles[m] == 0 {
			t.Fatalf("no cycles for %s", m)
		}
		if s := row.Slowdown[m]; s < 0.5 || s > 3 {
			t.Fatalf("implausible slowdown %v for %s", s, m)
		}
	}
	// NoSpeculation must never beat the speculating baseline on this
	// load-bound kernel.
	if row.Slowdown[core.ModeNoSpeculation] < 1.0 {
		t.Errorf("nospec faster than unsafe: %v", row.Slowdown[core.ModeNoSpeculation])
	}
}

func TestSpectreBenchCarriesLeakage(t *testing.T) {
	modes := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters}
	rows, err := (&Runner{}).RunMatrix(context.Background(), dbt.DefaultConfig(),
		[]Bench{SpectreBench(attack.V1, attack.Params{Secret: []byte{0x5A, 0xC3}})}, modes)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Name != "spectre-v1" || row.Cycles[core.ModeUnsafe] == 0 {
		t.Fatalf("row = %+v", row)
	}
	if l := row.Leakage[core.ModeUnsafe]; l == nil || l.SecretBytes != 2 || l.BitsLeaked != 16 {
		t.Errorf("unsafe leakage = %+v, want 16 bits of a 2-byte secret", l)
	}
	if l := row.Leakage[core.ModeGhostBusters]; l == nil || l.BitsLeaked != 0 {
		t.Errorf("ghostbusters leakage = %+v, want 0 bits", l)
	}
	k, _ := polybench.ByName("gemm")
	krow, err := RunKernel(k, 6, dbt.DefaultConfig(), modes)
	if err != nil {
		t.Fatal(err)
	}
	if krow.Leakage != nil {
		t.Errorf("kernel row has a leakage map: %v", krow.Leakage)
	}
}

func TestFormatRows(t *testing.T) {
	k, _ := polybench.ByName("atax")
	row, err := RunKernel(k, 8, dbt.DefaultConfig(), Fig4Modes)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatRows([]*Row{row}, Fig4Modes)
	for _, want := range []string{"atax", "geo-mean", "%", "cy"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestGeoMean(t *testing.T) {
	rows := []*Row{
		{Slowdown: map[core.Mode]float64{core.ModeNoSpeculation: 2.0}},
		{Slowdown: map[core.Mode]float64{core.ModeNoSpeculation: 0.5}},
	}
	if g := GeoMean(rows, core.ModeNoSpeculation); g < 0.99 || g > 1.01 {
		t.Fatalf("geomean(2, 0.5) = %v, want 1", g)
	}
	if g := GeoMean(nil, core.ModeNoSpeculation); g != 0 {
		t.Fatalf("geomean(empty) = %v", g)
	}
}

func TestPoCMatrixShape(t *testing.T) {
	table, lm, err := (&Runner{}).PoCMatrix(context.Background(), dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(AllModes()); len(lm.Cells) != want {
		t.Fatalf("cells = %d, want %d (2 variants x all modes)", len(lm.Cells), want)
	}
	if lm.Schema != attack.LeakMatrixSchema {
		t.Errorf("schema = %q", lm.Schema)
	}
	if !strings.Contains(table, "spectre-v1") || !strings.Contains(table, "ghostbusters") {
		t.Fatalf("table malformed:\n%s", table)
	}
	// Count leaks: exactly the two unsafe cells, each recovering and
	// (ground truth) leaking the whole secret.
	leaks := 0
	for _, c := range lm.Cells {
		if c.BytesCorrect == c.SecretBytes {
			leaks++
			if c.Mode != core.ModeUnsafe.String() {
				t.Errorf("leak under %s", c.Mode)
			}
			if c.BitsLeaked != 8*c.SecretBytes || c.Slowdown != 1 {
				t.Errorf("%s unsafe cell = %+v", c.Variant, c)
			}
		} else if c.BytesCorrect != 0 || c.BitsLeaked != 0 {
			t.Errorf("%s (%s): leak survived mitigation: %+v", c.Variant, c.Mode, c)
		}
	}
	if leaks != 2 {
		t.Fatalf("leaks = %d, want 2", leaks)
	}
}

// TestPoCMatrixWorkers: the PoC matrix is an ordinary Runner sweep, so
// its table and leakage matrix are byte-identical at any worker count,
// and a cell that did not run is an error rather than a hole.
func TestPoCMatrixWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two full PoC matrices are slow under -short")
	}
	render := func(workers int) (string, string) {
		t.Helper()
		table, lm, err := (&Runner{Workers: workers}).PoCMatrix(context.Background(), dbt.DefaultConfig())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		js, err := lm.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return table, string(js)
	}
	t1, j1 := render(1)
	t4, j4 := render(4)
	if t1 != t4 {
		t.Errorf("tables differ:\nj1:\n%s\nj4:\n%s", t1, t4)
	}
	if j1 != j4 {
		t.Errorf("leak matrices differ:\nj1:\n%s\nj4:\n%s", j1, j4)
	}

	cfg := dbt.DefaultConfig()
	cfg.FaultInject = &dbt.FaultInject{CacheFaultRate: 1}
	table, lm, err := (&Runner{Workers: 4, TolerateFaults: true}).PoCMatrix(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "hole") {
		t.Fatalf("faulted PoC matrix: err = %v, want a hole error", err)
	}
	if table != "" || lm != nil {
		t.Errorf("faulted PoC matrix rendered:\n%s", table)
	}
}

func TestSortRows(t *testing.T) {
	rows := []*Row{{Name: "z"}, {Name: "a"}, {Name: "m"}}
	SortRows(rows)
	if rows[0].Name != "a" || rows[2].Name != "z" {
		t.Fatalf("rows not sorted: %v %v %v", rows[0].Name, rows[1].Name, rows[2].Name)
	}
}

func TestCSV(t *testing.T) {
	k, _ := polybench.ByName("gemm")
	row, err := RunKernel(k, 8, dbt.DefaultConfig(), []core.Mode{core.ModeUnsafe, core.ModeNoSpeculation})
	if err != nil {
		t.Fatal(err)
	}
	out := CSV([]*Row{row}, []core.Mode{core.ModeUnsafe, core.ModeNoSpeculation})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[1], "gemm,unsafe,") {
		t.Fatalf("csv row malformed: %s", lines[1])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 7 {
			t.Fatalf("csv row has %d commas: %s", got, line)
		}
	}
}
