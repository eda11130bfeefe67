package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain is `gbperf compare <parent-dir> <change-dir>`: each
// directory holds -out result files of one commit, and the i-th file of
// a workload on one side is paired with the i-th on the other, in file
// name order. bench/README.md shows how to produce alternating pairs.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("gbperf compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "gbperf: usage: gbperf compare <parent-dir> <change-dir>")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	decl, err := readDecl(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fatal(err)
	}
	parent, parentHosts, err := loadResults(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	change, changeHosts, err := loadResults(fs.Arg(1))
	if err != nil {
		return fatal(err)
	}
	if hosts := distinctHosts(append(parentHosts, changeHosts...)); len(hosts) > 1 {
		fmt.Fprintf(os.Stderr, "gbperf: warning: the results come from %d different hosts: %v\n", len(hosts), hosts)
	}
	printVerdicts(os.Stdout, judgeAll(decl, parent, change))
	return 0
}

// series maps workload, then metric, to one value per run in file order.
type series map[string]map[string][]float64

func loadResults(dir string) (series, []host, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no result files in %s", dir)
	}
	sort.Strings(files)
	out := series{}
	var hosts []host
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var r savedResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %w", f, err)
		}
		if r.Schema != resultSchema {
			return nil, nil, fmt.Errorf("%s has schema %q, want %q", f, r.Schema, resultSchema)
		}
		if !r.Correct || r.Failed != 0 {
			return nil, nil, fmt.Errorf("%s is from a run that failed its checks", f)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		hosts = append(hosts, r.Host)
	}
	return out, hosts, nil
}

// distinctHosts lists the different machines among hosts; the commit
// is not part of a machine's identity.
func distinctHosts(hosts []host) []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range hosts {
		id := fmt.Sprintf("%s nproc=%d gomaxprocs=%d %s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// verdict is the judgement of one metric on one workload.
type verdict struct {
	workload, metric string
	label            string // improved, unchanged, worse or unresolved
	pairs, wins      int
	parentMedian     float64
	changeMedian     float64
	parentIQR        float64
}

func judgeAll(decl *benchmarkDecl, parent, change series) []verdict {
	var out []verdict
	for _, w := range decl.Workloads {
		add := func(ds []metricDecl, endToEnd bool) {
			for _, d := range ds {
				p, c := parent[w.Name][d.Name], change[w.Name][d.Name]
				if len(p) > 0 && len(c) > 0 {
					v := judge(d, endToEnd, p, c)
					v.workload = w.Name
					out = append(out, v)
				}
			}
		}
		add(decl.EndToEnd, true)
		add(decl.PerLayer, false)
	}
	return out
}

// judge applies the comparison rule to one metric's runs. A gain needs
// at least ten pairs, a win in at least nine tenths of them, and a gap
// between the medians wider than the parent's interquartile range. An
// end-to-end metric is worse when its median moved the wrong way by
// more than its bound, and unresolved when the parent's own spread is
// wider than the bound, unless every change run beats every parent run.
// A per-layer metric has no bound: it is worse by the mirror of the
// gain rule, unchanged when the medians are within the parent's
// interquartile range, and unresolved otherwise.
func judge(d metricDecl, endToEnd bool, p, c []float64) verdict {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{metric: d.Name, pairs: min(len(p), len(c)), parentMedian: median(p), changeMedian: median(c)}
	losses := 0
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(c[i], p[i]):
			v.wins++
		case better(p[i], c[i]):
			losses++
		}
	}
	q1, q3 := quartiles(p)
	v.parentIQR = q3 - q1
	gap := math.Abs(v.changeMedian - v.parentMedian)
	decisive := func(n int) bool { return v.pairs >= 10 && 10*n >= 9*v.pairs && gap > v.parentIQR }
	switch {
	case decisive(v.wins) && better(v.changeMedian, v.parentMedian):
		v.label = "improved"
	case endToEnd:
		worsening := (v.changeMedian - v.parentMedian) / math.Abs(v.parentMedian)
		if d.Better == "higher" {
			worsening = -worsening
		}
		switch {
		case v.parentIQR/math.Abs(v.parentMedian) > d.Bound && !allBetter(c, p, better):
			v.label = "unresolved"
		case worsening > d.Bound:
			v.label = "worse"
		default:
			v.label = "unchanged"
		}
	case decisive(losses) && better(v.parentMedian, v.changeMedian):
		v.label = "worse"
	case gap <= v.parentIQR:
		v.label = "unchanged"
	default:
		v.label = "unresolved"
	}
	return v
}

// allBetter reports whether every change run beats every parent run.
func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func printVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-12s %-44s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "parent p50", "change p50", "parent IQR", "wins", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-12s %-44s %12s %12s %12s %3d/%-3d  %s\n", v.workload, v.metric,
			fmtValue(v.parentMedian), fmtValue(v.changeMedian), fmtValue(v.parentIQR), v.wins, v.pairs, v.label)
	}
}
