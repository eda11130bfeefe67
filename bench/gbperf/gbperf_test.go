package main

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func testDecl(t *testing.T) (*benchmarkDecl, string) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDecl(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return decl, root
}

// testOptions makes the shortest traced run: one set-up, then one
// untraced and one traced operation.
func testOptions(t *testing.T) options {
	t.Helper()
	_, root := testDecl(t)
	expected, err := readExpected(filepath.Join(root, "BENCH_fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: 1, seconds: time.Nanosecond, trace: true, setups: 1,
		scratch: t.TempDir(), expected: expected}
}

// TestWorkloads runs every workload once, traced, and checks that it
// passes its own correctness gate and measures exactly the metrics
// BENCHMARK.json declares, in the declared units.
func TestWorkloads(t *testing.T) {
	decl, _ := testDecl(t)
	want := map[string]string{}
	for _, d := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		want[d.Name] = d.Unit
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := sortedKeys(workloads); strings.Join(got, " ") != strings.Join(declared, " ") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, name := range declared {
		t.Run(name, func(t *testing.T) {
			o := testOptions(t)
			if name == "serve-mix" {
				o.seconds = time.Second * 20 / serveRate // 20 jobs
			}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("%d of %d failed: %v", res.failed, res.attempted, res.failures)
			}
			got := map[string]string{}
			for n, m := range res.metrics {
				got[n] = m.Unit
			}
			for n, u := range want {
				if got[n] != u {
					t.Errorf("metric %s: measured in %q, declared in %q", n, got[n], u)
				}
			}
			for n := range got {
				if _, ok := want[n]; !ok {
					t.Errorf("metric %s is measured but not declared", n)
				}
			}
			if name == "fig4-disk" && res.metrics["tcache.hits"].Value == 0 {
				t.Errorf("traced fig4-disk sweep made no tcache hits")
			}
		})
	}
}

// TestExpectedCyclesGate tampers with one expected-cycles entry and
// checks that the run fails its gate, naming the cell.
func TestExpectedCyclesGate(t *testing.T) {
	o := testOptions(t)
	o.trace = false
	tampered := map[string]uint64{}
	for k, v := range o.expected {
		tampered[k] = v
	}
	tampered["gemm|ghostbusters"]++
	o.expected = tampered
	res, err := fig4Warm.run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) != 1 || !strings.Contains(res.failures[0], "gemm|ghostbusters") {
		t.Fatalf("failures = %v, want one naming gemm|ghostbusters", res.failures)
	}
}

func TestCompare(t *testing.T) {
	decl, _ := testDecl(t)
	all := append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...)
	runs := func(scale float64) series {
		s := series{"fig4-warm": {}}
		for i, d := range all {
			base := float64(i+1) * scale
			s["fig4-warm"][d.Name] = []float64{base, 1.01 * base, 0.99 * base}
		}
		return s
	}
	same := runs(1)
	vs := judgeAll(decl, same, same)
	if len(vs) != len(all) {
		t.Fatalf("%d verdicts for %d metrics", len(vs), len(all))
	}
	for _, v := range vs {
		if v.label != "unchanged" {
			t.Errorf("identical runs: %s judged %s", v.metric, v.label)
		}
	}

	lower := metricDecl{Name: "op_fast_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster, slower := make([]float64, 10), make([]float64, 10)
	for i, p := range parent {
		faster[i], slower[i] = p-20, p+20
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{{faster, "improved"}, {slower, "worse"}, {faster[:3], "unchanged"}} {
		if v := judge(lower, true, parent, c.change); v.label != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.change, v.label, c.want)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
