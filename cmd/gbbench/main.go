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
//	                     every registered mitigation mode. Prints the
//	                     precision/recall/FPR headline and the per-cell
//	                     verdict table; -detect-json writes the scored
//	                     matrix (schema ghostbusters/detect-eval/v1)
//
// Matrix experiments (fig4/ptrmm/kernel) fan out over a worker pool:
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
// with spans on or off.
//
// Exit codes: 1 for host/benchmark errors, 2 for usage errors, 3 when
// the matrix died on a guest trap (the trap kind, guest PC and cycle
// are printed to stderr), 4 when SIGINT/SIGTERM interrupted the sweep —
// in-flight runs are cancelled through the machines' interrupt hooks
// and the cells that did complete are still written to -perfjson, so a
// long sweep can be stopped without losing its measurements.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (go tool pprof), for hunting host-side performance problems.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/trap"
	"ghostbusters/internal/vliw"
)

// Exit codes for failure modes distinct from host errors (1) and usage
// errors (2).
const (
	exitGuestTrap   = 3 // the matrix died on a guest trap
	exitInterrupted = 4 // SIGINT/SIGTERM cancelled the sweep
)

func main() {
	exp := flag.String("exp", "fig4", "experiment: fig4 | poc | ptrmm | kernel | detect")
	kernel := flag.String("kernel", "gemm", "kernel name for -exp kernel")
	n := flag.Int("n", 0, "problem size override (0 = default)")
	width := flag.Int("width", 4, "VLIW issue width: 2, 4 or 8")
	csv := flag.Bool("csv", false, "machine-readable CSV output (fig4/ptrmm/kernel)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel benchmark jobs (>= 1)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit per benchmark run (0 = none)")
	perfjson := flag.String("perfjson", "", "write per-(benchmark,mode) perf JSON to this file (fig4/ptrmm/kernel)")
	checkperf := flag.String("checkperf", "", "fail on simulated-cycle regressions vs this perf JSON baseline")
	detectJSON := flag.String("detect-json", "", "with -exp detect, write the scored evaluation matrix as JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	retries := flag.Int("retries", 0, "retry attempts per benchmark run after a transient (injected) fault")
	retryBackoff := flag.Duration("retry-backoff", 0, "base pause before the first retry; doubles per attempt, with deterministic jitter")
	retryBackoffMax := flag.Duration("retry-backoff-max", 0, "cap on the per-retry pause (0 = 8x the base)")
	retrySeed := flag.Uint64("retry-seed", 0, "seed for the deterministic backoff jitter")
	tolerateFaults := flag.Bool("tolerate-faults", false, "render persistently faulted cells as n/a instead of failing the sweep")
	injectSeed := flag.Uint64("inject-seed", 0, "fault-injection PRNG seed")
	injectTrans := flag.Float64("inject-translation-rate", 0, "probability a translation attempt is forced to fail (0..1)")
	injectCache := flag.Float64("inject-cache-rate", 0, "probability an architectural access raises a transient cache fault (0..1)")
	injectIntr := flag.Float64("inject-interrupt-rate", 0, "probability per poll window of an injected spurious interrupt (0..1)")
	modesFlag := flag.String("modes", "fig4", `modes to sweep (fig4/ptrmm/kernel): "fig4" (the paper's four), "all" (every registered mitigation), or a comma-separated list of mode names`)
	useTCache := flag.Bool("tcache", false, "persist translated code across runs (default cache dir)")
	tcacheDir := flag.String("tcache-dir", "", "translation cache directory (implies -tcache)")
	spansOut := flag.String("spans", "", "write the host-side span timeline of the sweep (JSONL, schema ghostbusters/span/v1) to this file")
	flag.Parse()

	modes, err := parseModes(*modesFlag)
	if err != nil {
		usageError("gbbench: %v", err)
	}

	if *n < 0 {
		usageError("gbbench: -n must be >= 0, got %d", *n)
	}
	if *jobs < 1 {
		usageError("gbbench: -j must be >= 1, got %d", *jobs)
	}
	if *timeout < 0 {
		usageError("gbbench: -timeout must be >= 0, got %v", *timeout)
	}
	if *retries < 0 {
		usageError("gbbench: -retries must be >= 0, got %d", *retries)
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
			usageError("gbbench: %s must be in [0, 1], got %v", r.name, r.val)
		}
	}

	startProfiles(*cpuprofile, *memprofile)
	defer flushProfiles()

	base := dbt.DefaultConfig()
	geom, err := vliw.ConfigForWidth(*width)
	if err != nil {
		usageError("gbbench: %v", err)
	}
	base.Core = geom

	if *injectTrans > 0 || *injectCache > 0 || *injectIntr > 0 {
		base.FaultInject = &dbt.FaultInject{
			Seed:                   *injectSeed,
			TranslationFailureRate: *injectTrans,
			CacheFaultRate:         *injectCache,
			SpuriousInterruptRate:  *injectIntr,
		}
	}

	var transCache *tcache.Cache
	if *useTCache || *tcacheDir != "" {
		dir := *tcacheDir
		if dir == "" {
			dir, err = tcache.DefaultDir()
			fail(err)
		}
		transCache = tcache.New(dir)
		// Cache effectiveness goes to stderr at exit; stdout stays
		// byte-identical with the cache off (the -checkperf contract).
		defer func() {
			hits, misses, persisted := transCache.Stats()
			fmt.Fprintf(os.Stderr, "gbbench: tcache: %d hits, %d misses, %d documents written\n",
				hits, misses, persisted)
			if err := transCache.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "gbbench: warning:", err)
			}
		}()
	}

	// The host-side span layer captures the sweep's timeline: one
	// "matrix" root with a per-cell tree underneath (queue, backoff,
	// attempts, translate/execute splits). Spans ride the observability
	// plane — stdout stays byte-identical with them on or off.
	root := startSpans(*spansOut, *exp)
	defer closeSpans()

	runner := &harness.Runner{
		Workers:        *jobs,
		Timeout:        *timeout,
		Artifacts:      harness.NewArtifacts(),
		Retries:        *retries,
		Backoff:        *retryBackoff,
		BackoffMax:     *retryBackoffMax,
		BackoffSeed:    *retrySeed,
		TolerateFaults: *tolerateFaults,
		TransCache:     transCache,
		Span:           root,
	}
	// SIGINT/SIGTERM cancel the sweep: every in-flight machine is
	// stopped through its interrupt hook, the harness returns the cells
	// that completed, and checkInterrupted below persists them before
	// exiting with the distinct code.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// perfOut records and/or checks the perf JSON for a matrix result.
	// The current report is always written before the baseline check, so
	// CI can upload the measurement even from a failing run.
	perfOut := func(rows []*harness.Row) {
		if *perfjson == "" && *checkperf == "" {
			return
		}
		rep := harness.PerfFromRows(rows, modes)
		if *perfjson != "" {
			fail(rep.WriteFile(*perfjson))
		}
		if *checkperf != "" {
			baseline, err := harness.ReadPerf(*checkperf)
			fail(err)
			fail(harness.CheckPerf(rep, baseline))
		}
	}

	// checkInterrupted recognises a signal-cancelled sweep: the cells
	// that completed are still written to -perfjson (never judged with
	// -checkperf — a partial sweep cannot be compared to a baseline), a
	// note goes to stderr, and the process exits with the interruption
	// code.
	checkInterrupted := func(rows []*harness.Row, err error) {
		if err == nil || (ctx.Err() == nil && !errors.Is(err, dbt.ErrInterrupted)) {
			return
		}
		flushProfiles()
		closeSpans()
		cells := 0
		for _, r := range rows {
			cells += len(r.Cycles)
		}
		if *perfjson != "" && len(rows) > 0 {
			if werr := harness.PerfFromRows(rows, modes).WriteFile(*perfjson); werr != nil {
				fmt.Fprintln(os.Stderr, "gbbench:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "gbbench: partial perf report (%d completed cells) written to %s\n", cells, *perfjson)
			}
		}
		fmt.Fprintf(os.Stderr, "gbbench: interrupted with %d completed cells: %v\n", cells, err)
		os.Exit(exitInterrupted)
	}

	switch *exp {
	case "fig4":
		start := time.Now()
		rows, err := runner.Fig4(ctx, base, modes, *n)
		checkInterrupted(rows, err)
		fail(err)
		// Timing goes to stderr so stdout stays byte-identical at any -j.
		fmt.Fprintf(os.Stderr, "gbbench: %d benchmarks x %d modes on %d workers in %v\n",
			len(rows), len(modes), *jobs, time.Since(start).Round(time.Millisecond))
		perfOut(rows)
		if *csv {
			fmt.Print(harness.CSV(rows, modes))
			return
		}
		fmt.Println("Figure 4 — slowdown vs. unsafe execution (lower is better)")
		fmt.Println("columns: unsafe baseline cycles; then % of unsafe time per countermeasure")
		fmt.Println()
		fmt.Print(harness.FormatRows(rows, modes))

	case "poc":
		table, _, err := harness.PoCMatrix(base)
		fail(err)
		fmt.Println("Section V-A — Spectre proof-of-concept matrix")
		fmt.Println()
		fmt.Print(table)

	case "ptrmm":
		k, err := polybench.ByName("matmul-ptr")
		fail(err)
		row, err := runner.RunKernel(ctx, k, *n, base, modes)
		checkInterrupted(rowSlice(row), err)
		fail(err)
		perfOut([]*harness.Row{row})
		if *csv {
			fmt.Print(harness.CSV([]*harness.Row{row}, modes))
			return
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
		// default detect corpus spans every registered mitigation.
		var evalModes []core.Mode
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "modes" {
				evalModes = modes
			}
		})
		start := time.Now()
		doc, err := detect.Eval(ctx, base, detect.EvalConfig{
			Workers: *jobs,
			Timeout: *timeout,
			Retries: *retries,
			Backoff: *retryBackoff,
			KernelN: *n,
			Modes:   evalModes,
		})
		if ctx.Err() != nil || errors.Is(err, dbt.ErrInterrupted) {
			flushProfiles()
			closeSpans()
			fmt.Fprintln(os.Stderr, "gbbench: interrupted:", err)
			os.Exit(exitInterrupted)
		}
		fail(err)
		fmt.Fprintf(os.Stderr, "gbbench: detect eval: %d cells on %d workers in %v\n",
			doc.Summary.Cells, *jobs, time.Since(start).Round(time.Millisecond))
		if *detectJSON != "" {
			out, err := doc.JSON()
			fail(err)
			fail(os.WriteFile(*detectJSON, out, 0o644))
		}
		fmt.Print(doc.Table())

	case "kernel":
		k, err := polybench.ByName(*kernel)
		fail(err)
		row, err := runner.RunKernel(ctx, k, *n, base, modes)
		checkInterrupted(rowSlice(row), err)
		fail(err)
		perfOut([]*harness.Row{row})
		if *csv {
			fmt.Print(harness.CSV([]*harness.Row{row}, modes))
			return
		}
		fmt.Print(harness.FormatRows([]*harness.Row{row}, modes))

	default:
		usageError("gbbench: unknown experiment %q", *exp)
	}
}

// The span layer's state, closed exactly once on every exit path
// (os.Exit skips defers, so fail and the interrupt paths close
// explicitly, like the profiles).
var (
	spanTracer *hspan.Tracer
	spanRoot   hspan.Span
	spanFile   *os.File
)

// startSpans opens the sweep's span timeline when -spans is set. The
// returned root is the zero Span otherwise — the runner's span hooks
// stay wired at zero cost.
func startSpans(path, exp string) hspan.Span {
	if path == "" {
		return hspan.Span{}
	}
	f, err := os.Create(path)
	fail(err)
	spanFile = f
	spanTracer = hspan.New(hspan.NewJSONLSink(f))
	spanRoot = spanTracer.Start("matrix", hspan.Str("exp", exp))
	return spanRoot
}

// closeSpans ends the root span and flushes the JSONL stream; safe to
// call on every exit path, at most once effective.
func closeSpans() {
	if spanTracer == nil {
		return
	}
	spanRoot.End()
	if err := spanTracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gbbench: spans:", err)
	}
	spanTracer = nil
	if err := spanFile.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gbbench: spans:", err)
	}
	spanFile = nil
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
	var modes []core.Mode
	seen := map[core.Mode]bool{}
	for _, name := range strings.Split(s, ",") {
		m, err := core.ParseMode(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if seen[m] {
			return nil, fmt.Errorf("-modes lists %s twice", m)
		}
		seen[m] = true
		modes = append(modes, m)
	}
	return modes, nil
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// fail flushes any in-flight profiles before exiting: os.Exit skips
// deferred calls, and a truncated CPU profile is worse than none. A
// guest trap in the error chain gets structured diagnostics and its own
// exit code.
func fail(err error) {
	if err == nil {
		return
	}
	flushProfiles()
	closeSpans()
	fmt.Fprintln(os.Stderr, "gbbench:", err)
	if f := trap.As(err); f != nil {
		fmt.Fprintf(os.Stderr, "gbbench: guest trap: kind=%s pc=%#x addr=%#x cycle=%d\n",
			f.Kind, f.PC, f.Addr, f.Cycle)
		os.Exit(exitGuestTrap)
	}
	os.Exit(1)
}

var (
	cpuProfileFile  *os.File
	memProfilePath  string
	profilesFlushed bool
)

func startProfiles(cpu, mem string) {
	memProfilePath = mem
	if cpu != "" {
		f, err := os.Create(cpu)
		fail(err)
		cpuProfileFile = f
		fail(pprof.StartCPUProfile(f))
	}
}

func flushProfiles() {
	if profilesFlushed {
		return
	}
	profilesFlushed = true
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gbbench:", err)
			return
		}
		defer f.Close()
		runtime.GC() // one final collection for accurate live-heap numbers
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gbbench:", err)
		}
	}
}
