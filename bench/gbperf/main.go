// Command gbperf is the repository benchmark. It runs one workload,
// checks every output it produces, and prints each metric as
// "name value unit" followed by one JSON result line:
//
//	gbperf -workload fig4-warm -seed 1 -seconds 25 -trace 0 [-out result.json]
//	gbperf compare <parent-dir> <change-dir>
//
// BENCHMARK.json at the repository root declares the workloads and the
// metrics. With -trace 0 the run drives the program the way its users
// do, with tracing off, and reports the end-to-end metrics. With
// -trace 1 it alternates those untraced operations with a traced pass
// that calls each layer's public functions one by one and reports the
// per-layer metrics. The compare subcommand judges two sets of -out
// files against each other. bench/README.md explains the workloads and
// how to compare two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up is repeated this many times in an untraced run and its median
// reported, so a slow first set-up (cold pools, heap growth) does not
// decide setup_s. A traced run sets up once.
const untracedSetups = 5

// resultSchema identifies the -out file format compare reads.
const resultSchema = "ghostbusters/gbperf/v1"

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one workload run.
type result struct {
	attempted int
	failed    int
	// metrics holds every metric the run measured: the end-to-end ones,
	// and the per-layer ones when the run was traced.
	metrics map[string]metric
	// info holds diagnostics that are not declared metrics, such as
	// sample counts and per-job-kind latencies.
	info map[string]float64
	// latencies are the measured operations' latencies in ms, in the
	// order they ran.
	latencies []float64
	// failures names every correctness check that failed.
	failures []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, info: map[string]float64{}}
}

func (r *result) put(name string, value float64, unit string) {
	r.metrics[name] = metric{value, unit}
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// options configure one workload run.
type options struct {
	seed    int64
	seconds time.Duration // length of the measured phase
	trace   bool
	setups  int    // set-ups to run; setup_s is their median
	scratch string // directory for the files a run writes
	// expected maps "bench|mode" to the simulated cycles recorded in
	// BENCH_fig4.json.
	expected map[string]uint64
}

// workload runs one named workload.
type workload func(o options) (*result, error)

var workloads = map[string]workload{
	"matrix-cold": matrixCold.run,
	"fig4-warm":   fig4Warm.run,
	"fig4-disk":   fig4Disk.run,
	"serve-mix":   runServeMix,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("gbperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (declared in BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the serve-mix job stream is drawn from")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "also write the result and the host identity as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "gbperf: usage: gbperf -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-out file]")
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
	run, ok := workloads[*name]
	if !ok || !decl.hasWorkload(*name) {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	expected, err := readExpected(filepath.Join(root, "BENCH_fig4.json"))
	if err != nil {
		return fatal(err)
	}
	scratch := filepath.Join(root, ".bench_build", fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(scratch)

	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: untracedSetups, scratch: scratch, expected: expected}
	if o.trace {
		o.setups = 1
	}
	res, err := run(o)
	if err != nil {
		return fatal(err)
	}
	want := decl.EndToEnd
	if o.trace {
		want = decl.PerLayer
	}
	emitted, err := selectMetrics(want, res.metrics)
	if err != nil {
		return fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, res.failed, emitted})
	if err != nil {
		return fatal(err)
	}
	for _, d := range want {
		m := emitted[d.Name]
		fmt.Printf("%s %s %s\n", d.Name, fmtValue(m.Value), m.Unit)
	}
	for _, k := range sortedKeys(res.info) {
		fmt.Fprintf(os.Stderr, "gbperf: info %s %s\n", k, strconv.FormatFloat(res.info[k], 'f', -1, 64))
	}
	fmt.Println(string(line))
	if *out != "" {
		saved := savedResult{Schema: resultSchema, Workload: *name, Seed: *seed,
			Seconds: *seconds, Trace: o.trace, Host: hostIdentity(),
			Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: res.failed,
			Metrics: emitted, Info: res.info, Latencies: res.latencies}
		if err := writeJSON(*out, saved); err != nil {
			return fatal(err)
		}
	}
	if len(res.failures) > 0 {
		const shown = 20
		for _, f := range res.failures[:min(shown, len(res.failures))] {
			fmt.Fprintf(os.Stderr, "gbperf: check failed: %s\n", f)
		}
		if len(res.failures) > shown {
			fmt.Fprintf(os.Stderr, "gbperf: and %d more failed checks\n", len(res.failures)-shown)
		}
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "gbperf: %v\n", err)
	return 1
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// selectMetrics returns exactly the declared metrics from a run's
// measurements, and fails when one is missing or carries another unit.
func selectMetrics(want []metricDecl, got map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	var errs []error
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", d.Name))
		case m.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit))
		default:
			out[d.Name] = m
		}
	}
	return out, errors.Join(errs...)
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchmarkDecl is the part of BENCHMARK.json the benchmark reads.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func (b *benchmarkDecl) hasWorkload(name string) bool {
	for _, w := range b.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func readDecl(path string) (*benchmarkDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkDecl
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// readExpected loads the simulated cycles of every Figure 4 cell from
// the checked-in perf baseline, keyed "bench|mode".
func readExpected(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Entries []struct {
			Benchmark string `json:"benchmark"`
			Mode      string `json:"mode"`
			SimCycles uint64 `json:"sim_cycles"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]uint64, len(rep.Entries))
	for _, e := range rep.Entries {
		out[e.Benchmark+"|"+e.Mode] = e.SimCycles
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no entries", path)
	}
	return out, nil
}

// savedResult is the -out file: one run's result with the identity of
// the host that measured it.
type savedResult struct {
	Schema    string             `json:"schema"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	Latencies []float64          `json:"latencies_ms,omitempty"`
}

// host identifies the machine and build that produced a result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostIdentity() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "+modified"
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
