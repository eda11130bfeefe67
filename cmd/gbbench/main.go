// Command gbbench regenerates the paper's evaluation tables:
//
//	gbbench -exp fig4    slowdown of each countermeasure vs unsafe
//	                     execution over the benchmark suite (Figure 4,
//	                     plus the fence variant of Section V-B)
//	gbbench -exp poc     the Section V-A proof-of-concept matrix
//	gbbench -exp ptrmm   the pointer-layout matmul experiment
//	                     (Section V-B, last paragraph)
//	gbbench -exp kernel -kernel gemm -n 24   a single kernel
//	gbbench -exp detect  score the online attack-phase detector over a
//	                     labeled corpus: every polybench kernel (benign
//	                     negatives) and both Spectre PoCs (positives
//	                     where the scoreboard proves leakage), each under
//	                     every mitigation mode. Prints the
//	                     precision/recall/FPR headline and the per-cell
//	                     verdict table; -detect-json writes the scored
//	                     matrix (schema ghostbusters/detect-eval/v1)
//
// Matrix experiments (fig4/poc/ptrmm/kernel) fan out over a worker pool:
// -j bounds the pool (default GOMAXPROCS) and -timeout puts a
// wall-clock guard on every individual run. Results are deterministic —
// -j 8 produces byte-identical tables to -j 1, just faster.
//
// The perf-regression layer rides on the matrix experiments:
//
//	gbbench -exp fig4 -perfjson out.json    record host wall clock and
//	                                        simulated cycles per
//	                                        (benchmark, mode)
//	gbbench -exp fig4 -checkperf base.json  fail (exit 1) if any pair's
//	                                        simulated cycles exceed the
//	                                        baseline's
//
// Each perf JSON entry also embeds the cell's full metrics snapshot
// (the stable-name counters of the observability layer: sim.*, dbt.*,
// core.*, mitigation.*, cache.*, ...) for dashboards and diffing; the
// regression check still compares exactly sim_cycles.
//
// The fault-tolerance layer is exercised with the injection flags:
//
//	gbbench -exp fig4 -inject-translation-rate 0.2 -inject-seed 7 \
//	        -retries 3 -retry-backoff 10ms -tolerate-faults
//
// injects deterministic, seeded translation failures into every run;
// the harness retries faulted cells with a reseeded injector and
// renders cells that stay faulted as "n/a" instead of failing the
// sweep. The backoff before each retry doubles per attempt from
// -retry-backoff, capped at -retry-backoff-max, with deterministic
// jitter seeded by -retry-seed. All injection is off by default.
//
// -spans writes the sweep's host-side span timeline as
// ghostbusters/span/v1 JSONL: the matrix root, one cell span per
// (benchmark, mode) with its retries, backoff sleeps and
// translate/execute split — host wall-clock nanoseconds, riding the
// observability plane, so stdout (and -checkperf) stay byte-identical
// with spans on or off. -exp detect runs on the same Runner, so -j,
// -timeout, the retry flags, -tolerate-faults, -tcache/-tcache-dir and
// -spans all apply to the detector evaluation too.
//
// Exit codes are the ones every run CLI shares (see internal/cli): 1
// for host/benchmark errors, 2 for usage errors (a negative -retries,
// -retry-backoff or -retry-backoff-max included), 3 when the matrix
// died on a guest trap (the trap kind, guest PC and cycle are printed
// to stderr), 4 when SIGINT/SIGTERM interrupted the sweep — in-flight
// runs are cancelled through the machines' interrupt hooks and the
// cells that did complete are still written to -perfjson, so a long
// sweep can be stopped without losing its measurements. The -tcache
// summary goes to stderr on every exit, failing ones included.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (go tool pprof), for hunting host-side performance problems.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ghostbusters/internal/cli"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/polybench"
)

func main() {
	t := cli.New("gbbench")
	exp := flag.String("exp", "fig4", "experiment: fig4 | poc | ptrmm | kernel | detect")
	kernel := flag.String("kernel", "gemm", "kernel name for -exp kernel")
	n := flag.Int("n", 0, "problem size override (0 = default)")
	csv := flag.Bool("csv", false, "machine-readable CSV output (fig4/ptrmm/kernel)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel benchmark jobs (>= 1)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit per benchmark run (0 = none)")
	perfjson := flag.String("perfjson", "", "write per-(benchmark,mode) perf JSON to this file (fig4/ptrmm/kernel)")
	checkperf := flag.String("checkperf", "", "fail on simulated-cycle regressions vs this perf JSON baseline")
	detectJSON := flag.String("detect-json", "", "with -exp detect, write the scored evaluation matrix as JSON to this file")
	tolerateFaults := flag.Bool("tolerate-faults", false, "render persistently faulted cells as n/a instead of failing the sweep")
	injectSeed := flag.Uint64("inject-seed", 0, "fault-injection PRNG seed")
	injectTrans := flag.Float64("inject-translation-rate", 0, "probability a translation attempt is forced to fail (0..1)")
	injectCache := flag.Float64("inject-cache-rate", 0, "probability an architectural access raises a transient cache fault (0..1)")
	injectIntr := flag.Float64("inject-interrupt-rate", 0, "probability per poll window of an injected spurious interrupt (0..1)")
	modesFlag := flag.String("modes", "fig4", `modes to sweep (fig4/ptrmm/kernel): "fig4" (the paper's four), "all" (every registered mitigation), or a comma-separated list of mode names`)
	t.WidthFlag()
	t.RetryFlags(0)
	t.ProfileFlags()
	t.TCacheFlags()
	t.SpanFlags()
	t.Parse()

	modes, err := parseModes(*modesFlag)
	if err != nil {
		t.UsageError("%v", err)
	}
	if *n < 0 {
		t.UsageError("-n must be >= 0, got %d", *n)
	}
	if *jobs < 1 {
		t.UsageError("-j must be >= 1, got %d", *jobs)
	}
	if *timeout < 0 {
		t.UsageError("-timeout must be >= 0, got %v", *timeout)
	}
	for _, r := range []struct {
		name string
		val  float64
	}{
		{"-inject-translation-rate", *injectTrans},
		{"-inject-cache-rate", *injectCache},
		{"-inject-interrupt-rate", *injectIntr},
	} {
		if r.val < 0 || r.val > 1 {
			t.UsageError("%s must be in [0, 1], got %v", r.name, r.val)
		}
	}

	base := dbt.DefaultConfig()
	if *injectTrans > 0 || *injectCache > 0 || *injectIntr > 0 {
		base.FaultInject = &dbt.FaultInject{
			Seed:                   *injectSeed,
			TranslationFailureRate: *injectTrans,
			CacheFaultRate:         *injectCache,
			SpuriousInterruptRate:  *injectIntr,
		}
	}
	// SIGINT/SIGTERM cancel the sweep: every in-flight machine is
	// stopped through its interrupt hook and the harness returns the
	// cells that completed. The host-side span layer captures the
	// sweep's timeline: one "matrix" root with a per-cell tree
	// underneath (queue, backoff, attempts, translate/execute splits).
	// Spans ride the observability plane — stdout stays byte-identical
	// with them on or off, and so does the tcache (its summary goes to
	// stderr: the -checkperf contract).
	ctx := t.Start(&base, "matrix", hspan.Str("exp", *exp))
	runner := &harness.Runner{
		Workers:        *jobs,
		Timeout:        *timeout,
		Artifacts:      harness.NewArtifacts(),
		Retries:        t.Retries,
		Backoff:        t.Backoff,
		TolerateFaults: *tolerateFaults,
		TransCache:     t.TransCache(),
		Span:           t.Root(),
	}

	// failSweep exits on a failed sweep. A signal-cancelled one first
	// writes the cells that completed to -perfjson (never judged with
	// -checkperf — a partial sweep cannot be compared to a baseline).
	failSweep := func(rows []*harness.Row, err error) {
		if err != nil && t.Interrupted(err) && *perfjson != "" && len(rows) > 0 {
			if werr := harness.PerfFromRows(rows, modes).WriteFile(*perfjson); werr != nil {
				fmt.Fprintln(os.Stderr, "gbbench:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "gbbench: partial perf report written to %s\n", *perfjson)
			}
		}
		t.Fail(err)
	}

	// perfOut records and/or checks the perf JSON for a matrix result.
	// The current report is always written before the baseline check, so
	// CI can upload the measurement even from a failing run.
	perfOut := func(rows []*harness.Row) {
		if *perfjson == "" && *checkperf == "" {
			return
		}
		rep := harness.PerfFromRows(rows, modes)
		if *perfjson != "" {
			t.Fail(rep.WriteFile(*perfjson))
		}
		if *checkperf != "" {
			baseline, err := harness.ReadPerf(*checkperf)
			t.Fail(err)
			t.Fail(harness.CheckPerf(rep, baseline))
		}
	}

	switch *exp {
	case "fig4":
		start := time.Now()
		rows, err := runner.Fig4(ctx, base, modes, *n)
		failSweep(rows, err)
		// Timing goes to stderr so stdout stays byte-identical at any -j.
		fmt.Fprintf(os.Stderr, "gbbench: %d benchmarks x %d modes on %d workers in %v\n",
			len(rows), len(modes), *jobs, time.Since(start).Round(time.Millisecond))
		perfOut(rows)
		if *csv {
			fmt.Print(harness.CSV(rows, modes))
			break
		}
		fmt.Println("Figure 4 — slowdown vs. unsafe execution (lower is better)")
		fmt.Println("columns: unsafe baseline cycles; then % of unsafe time per countermeasure")
		fmt.Println()
		fmt.Print(harness.FormatRows(rows, modes))

	case "poc":
		table, _, err := runner.PoCMatrix(ctx, base)
		t.Fail(err)
		fmt.Println("Section V-A — Spectre proof-of-concept matrix")
		fmt.Println()
		fmt.Print(table)

	case "ptrmm":
		k, err := polybench.ByName("matmul-ptr")
		t.Fail(err)
		row, err := runner.RunKernel(ctx, k, *n, base, modes)
		failSweep(rowSlice(row), err)
		perfOut([]*harness.Row{row})
		if *csv {
			fmt.Print(harness.CSV([]*harness.Row{row}, modes))
			break
		}
		fmt.Println("Section V-B — matmul with array-of-pointer 2-D layout")
		fmt.Println("(the Spectre pattern occurs in the hot loop: fine-grained")
		fmt.Println("mitigation should cost far less than the fence)")
		fmt.Println()
		fmt.Print(harness.FormatRows([]*harness.Row{row}, modes))
		if gb, ok := row.Stats[core.ModeGhostBusters]; ok {
			fmt.Printf("\npatterns detected: %d, risky loads pinned: %d, guard edges: %d\n",
				gb.PatternsFound, gb.RiskyLoads, gb.GuardEdges)
		}

	case "detect":
		// -modes only narrows the matrix when set explicitly; the
		// default detect corpus spans every mitigation mode.
		var evalModes []core.Mode
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "modes" {
				evalModes = modes
			}
		})
		start := time.Now()
		doc, err := detect.Eval(ctx, runner, base, detect.EvalConfig{KernelN: *n, Modes: evalModes})
		t.Fail(err)
		fmt.Fprintf(os.Stderr, "gbbench: detect eval: %d cells on %d workers in %v\n",
			doc.Summary.Cells, *jobs, time.Since(start).Round(time.Millisecond))
		if *detectJSON != "" {
			out, err := doc.JSON()
			t.Fail(err)
			t.Fail(os.WriteFile(*detectJSON, out, 0o644))
		}
		fmt.Print(doc.Table())

	case "kernel":
		k, err := polybench.ByName(*kernel)
		t.Fail(err)
		row, err := runner.RunKernel(ctx, k, *n, base, modes)
		failSweep(rowSlice(row), err)
		perfOut([]*harness.Row{row})
		if *csv {
			fmt.Print(harness.CSV([]*harness.Row{row}, modes))
			break
		}
		fmt.Print(harness.FormatRows([]*harness.Row{row}, modes))

	default:
		t.UsageError("unknown experiment %q", *exp)
	}
	t.Close()
}

// rowSlice lifts a possibly-nil single row into the slice shape the
// partial-result paths want.
func rowSlice(row *harness.Row) []*harness.Row {
	if row == nil {
		return nil
	}
	return []*harness.Row{row}
}

// parseModes resolves the -modes flag: the two named sweeps, or an
// explicit comma-separated list of mitigation names.
func parseModes(s string) ([]core.Mode, error) {
	switch s {
	case "fig4":
		return harness.Fig4Modes, nil
	case "all":
		return harness.AllModes(), nil
	}
	return core.ParseModes(strings.Split(s, ","))
}
