// Command gbrun assembles and runs an rv64im guest program on the
// simulated DBT-based processor:
//
//	gbrun [-mode unsafe|ghostbusters|fence|nospec] [-width 2|4|8]
//	      [-interp] [-stats] [-json] [-trace] [-traceout file]
//	      [-trace-format text|jsonl|perfetto] [-profile]
//	      [-audit] [-audit-json file]
//	      [-detect] [-detect-json file] [-spans file]
//	      [-tcache] [-tcache-dir dir] program.s
//
// The exit status is the guest's exit code when the guest runs to
// completion. Failures use distinct codes:
//
//	1  host-side error (unreadable file, assembly error, bad config)
//	2  usage error
//	3  guest trap (illegal instruction, wild jump, out-of-range access,
//	   cycle-budget exhaustion, ...) — the trap kind, guest PC, faulting
//	   address and cycle count are printed to stderr
//	4  interrupted by SIGINT/SIGTERM — the in-flight run is cancelled
//	   through the machine's interrupt hook and any -traceout stream is
//	   flushed before exiting, so a partial trace of the cancelled run
//	   survives
//
// -trace logs block dispatches and taken interpreter branches to stderr
// in the classic human-readable line format. -traceout writes the full
// event stream (including per-speculative-load events) to a file in the
// format chosen by -trace-format; "perfetto" produces a Chrome
// trace-event JSON loadable in ui.perfetto.dev, timed in simulated
// cycles. The two compose: both sinks see the same stream.
//
// -audit turns on the leakage audit layer: the translator records a
// provenance chain for every load it analyzes (which speculative load
// poisoned its address, along which data-flow path, under which guard)
// and gbrun prints the machine-wide explainability table after the run.
// -audit-json writes the same audit as a stable JSON document (schema
// ghostbusters/audit/v1); either flag enables collection. Auditing only
// costs translation time — the generated code is identical.
//
// -detect attaches the online attack-phase detector to the run's event
// stream and prints its verdict: whether the run showed the
// Flush+Reload shape (prime→trigger rounds over distinct cache lines),
// with the inferred phase timeline. -detect-json writes the verdict as
// a stable JSON document (schema ghostbusters/detect/v1); either flag
// enables detection. Detection composes with -traceout — the detector
// rides the same stream as the trace file behind a tee, and the
// inferred phase/rounds/alarm tracks are appended to the trace so a
// Perfetto timeline shows the detection overlaid on the raw counters.
//
// -spans writes the host-side span timeline (assemble, load, run with
// its translate/execute split) as ghostbusters/span/v1 JSONL — host
// wall-clock nanoseconds, a second clock domain next to the simulated
// cycles. With `-traceout file -trace-format perfetto` the spans are
// also mirrored into the same Perfetto document as a separate process
// track, so one ui.perfetto.dev load shows the guest-cycle and host-ns
// timelines together.
//
// -tcache persists translated regions across runs (in the user cache
// dir, or under -tcache-dir): a warm run of the same program and
// configuration compiles nothing — `-stats -json` reports
// dbt.translations = 0 — while every guest-visible number stays
// bit-identical to a cold run.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (host-side performance, not guest cycles).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"ghostbusters"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/vliw"
)

// Exit codes for the failure modes distinct from host errors (1) and
// usage errors (2).
const (
	exitGuestTrap   = 3 // structured guest trap
	exitInterrupted = 4 // cancelled by SIGINT/SIGTERM
)

func main() {
	mode := flag.String("mode", "unsafe", "mitigation: unsafe | ghostbusters | fence | nospec")
	width := flag.Int("width", 4, "VLIW issue width: 2, 4 or 8")
	interp := flag.Bool("interp", false, "interpreter only (no translation)")
	stats := flag.Bool("stats", false, "print machine statistics")
	jsonOut := flag.Bool("json", false, "with -stats, print the metrics snapshot as JSON instead of text")
	trace := flag.Bool("trace", false, "log every block dispatch and taken branch to stderr")
	traceOut := flag.String("traceout", "", "write the trace event stream to this file")
	traceFormat := flag.String("trace-format", "perfetto", "trace file format: text | jsonl | perfetto")
	profile := flag.Bool("profile", false, "print the hottest translated regions by attributed cycles")
	audit := flag.Bool("audit", false, "collect poison provenance and print the audit table")
	auditJSON := flag.String("audit-json", "", "write the audit as JSON (schema ghostbusters/audit/v1) to this file")
	detectFlag := flag.Bool("detect", false, "run the online attack-phase detector and print its verdict")
	detectJSON := flag.String("detect-json", "", "write the detection verdict as JSON (schema ghostbusters/detect/v1) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	useTCache := flag.Bool("tcache", false, "persist translated code across runs (default cache dir)")
	tcacheDir := flag.String("tcache-dir", "", "translation cache directory (implies -tcache)")
	spansOut := flag.String("spans", "", "write the host-side span timeline (JSONL, schema ghostbusters/span/v1) to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gbrun [flags] program.s")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	fail(err)

	startProfiles(*cpuprofile, *memprofile)

	m, err := ghostbusters.ParseMode(*mode)
	fail(err)
	cfg := ghostbusters.WithMitigation(ghostbusters.DefaultConfig(), m)
	cfg.Core, err = vliw.ConfigForWidth(*width)
	fail(err)
	cfg.DisableTranslation = *interp
	cfg.Audit = *audit || *auditJSON != ""
	var detector *ghostbusters.Detector
	if *detectFlag || *detectJSON != "" {
		detector = ghostbusters.NewDetector(ghostbusters.DetectConfig{})
	}
	cfg.Tracer = buildTracer(*trace, *traceOut, *traceFormat, detector)
	root := buildSpans(*spansOut)
	transCache := buildTransCache(*useTCache, *tcacheDir)
	cfg.TransCache = transCache

	// SIGINT/SIGTERM cancel the run through the machine's interrupt
	// hook: the dispatch loop notices within one poll window, Run
	// returns ErrInterrupted, and the trace/profile sinks are flushed
	// before the distinct exit code.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Interrupt = ctx.Done()

	as := root.Child("assemble", ghostbusters.SpanStr("file", flag.Arg(0)))
	prog, err := ghostbusters.Assemble(string(src))
	as.End()
	fail(err)
	machine, err := ghostbusters.NewMachine(cfg)
	fail(err)
	ls := root.Child("load")
	fail(machine.Load(prog))
	ls.End()
	rs := root.Child("run", ghostbusters.SpanStr("mode", *mode))
	res, err := machine.Run()
	endRunSpan(rs, machine)
	if err != nil {
		shutdown()
		if errors.Is(err, ghostbusters.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "gbrun: interrupted: %v\n", err)
			fmt.Fprintf(os.Stderr, "gbrun: partial trace and profiles flushed\n")
			os.Exit(exitInterrupted)
		}
		if f := ghostbusters.AsFault(err); f != nil {
			fmt.Fprintf(os.Stderr, "gbrun: guest trap: %s\n", f.Kind)
			fmt.Fprintf(os.Stderr, "gbrun:   %s\n", f.Detail)
			fmt.Fprintf(os.Stderr, "gbrun:   pc=%#x addr=%#x cycle=%d\n", f.PC, f.Addr, f.Cycle)
			if f.Block != 0 {
				fmt.Fprintf(os.Stderr, "gbrun:   in translated region @%#x\n", f.Block)
			}
			os.Exit(exitGuestTrap)
		}
		fmt.Fprintln(os.Stderr, "gbrun:", err)
		os.Exit(1)
	}

	fmt.Printf("exit=%d cycles=%d instret=%d\n", res.Exit.Code, res.Cycles, res.Instret)
	if *profile {
		printProfile(machine, res.Cycles)
	}
	if cfg.Audit {
		writeAudit(machine.Audit(), *audit, *auditJSON)
	}
	var detectRep *ghostbusters.DetectReport
	if detector != nil {
		// Flush the stream tail into the detector, take the verdict,
		// then append the inferred phase/rounds/alarm tracks to the
		// still-open trace so they land in the -traceout file.
		_ = cfg.Tracer.Flush()
		detectRep = detector.Report()
		detectRep.EmitTracks(cfg.Tracer)
		if *detectFlag {
			fmt.Print(detectRep.Format())
		}
		if *detectJSON != "" {
			out, err := detectRep.JSON()
			fail(err)
			fail(os.WriteFile(*detectJSON, out, 0o644))
		}
	}
	if *stats {
		if *jsonOut {
			snap := res.Snapshot()
			if detectRep != nil {
				detectRep.AddMetrics(snap)
			}
			out, err := json.MarshalIndent(snap, "", "  ")
			fail(err)
			fmt.Println(string(out))
		} else {
			s := res.Stats
			fmt.Printf("interp-insts=%d blocks=%d traces=%d block-execs=%d bundles=%d\n",
				s.InterpInsts, s.Blocks, s.Traces, s.BlockExecs, s.Bundles)
			fmt.Printf("spec-loads=%d squashed=%d recoveries=%d side-exits=%d\n",
				s.SpecLoads, s.SpecSquash, s.Recoveries, s.SideExits)
			fmt.Printf("patterns=%d risky-loads=%d guard-edges=%d compile-errors=%d\n",
				s.PatternsFound, s.RiskyLoads, s.GuardEdges, s.CompileErrs)
			fmt.Printf("traps=%s\n", s.Traps.String())
		}
	}
	// os.Exit skips deferred calls, so profiles and the trace are flushed
	// explicitly before propagating the guest's exit code.
	if transCache != nil {
		if err := transCache.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "gbrun: warning:", err)
		}
	}
	shutdown()
	os.Exit(int(res.Exit.Code))
}

// buildTransCache wires the persistent translation cache when
// requested: an explicit directory, or the user cache dir by default.
func buildTransCache(enabled bool, dir string) *tcache.Cache {
	if !enabled && dir == "" {
		return nil
	}
	if dir == "" {
		var err error
		dir, err = tcache.DefaultDir()
		fail(err)
	}
	return tcache.New(dir)
}

// writeAudit prints the explainability table and/or writes the JSON
// document for a collected machine-wide audit.
func writeAudit(aud *ghostbusters.Audit, table bool, jsonPath string) {
	if aud == nil {
		fail(fmt.Errorf("audit requested but none collected"))
	}
	if table {
		fmt.Print(aud.Format())
	}
	if jsonPath != "" {
		out, err := json.MarshalIndent(aud.Doc(), "", "  ")
		fail(err)
		fail(os.WriteFile(jsonPath, append(out, '\n'), 0o644))
	}
}

// printProfile ranks the translated regions by the simulated cycles
// attributed to them, with each region's share of the whole run.
func printProfile(machine *ghostbusters.Machine, total uint64) {
	fmt.Println("hottest translated regions (by attributed cycles):")
	for i, r := range machine.ProfileReport() {
		if i >= 10 {
			break
		}
		kind := "block"
		if r.IsTrace {
			kind = "trace"
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Cycles) / float64(total)
		}
		fmt.Printf("  %#010x %-6s %5.1f%% %10d cycles, %8d dispatches, %3d insts in %3d bundles\n",
			r.PC, kind, share, r.Cycles, r.Dispatches, r.GuestInsts, r.Bundles)
	}
}

// tracer is closed by shutdown() on every exit path; traceFile after it.
var (
	tracer    *ghostbusters.Tracer
	traceFile *os.File
	// traceFileSink is the -traceout sink, kept so -spans can mirror the
	// host timeline into the same Perfetto document.
	traceFileSink ghostbusters.TraceSink

	spanTracer *ghostbusters.SpanTracer
	spanRoot   ghostbusters.Span
	spanFile   *os.File
)

// buildSpans wires the host-side span layer: a JSONL file sink, plus a
// mirror into the -traceout Perfetto document when one is open — one
// file, two clock domains. Returns the root span of the run (the zero
// Span when -spans is unset: every hook stays wired at zero cost).
func buildSpans(path string) ghostbusters.Span {
	if path == "" {
		return ghostbusters.Span{}
	}
	f, err := os.Create(path)
	fail(err)
	spanFile = f
	var sinks []ghostbusters.SpanSink
	sinks = append(sinks, ghostbusters.NewSpanJSONLSink(f))
	if pf, ok := ghostbusters.NewSpanPerfettoSink(traceFileSink); ok {
		sinks = append(sinks, pf)
	}
	spanTracer = ghostbusters.NewSpanTracer(ghostbusters.NewSpanMultiSink(sinks...))
	spanRoot = spanTracer.Start("gbrun")
	return spanRoot
}

// endRunSpan closes the run span, attributing its host time to
// consecutive translate and execute intervals from the machine's
// accumulated translation latency (translation actually interleaves
// with execution; the split shows attributed durations).
func endRunSpan(rs ghostbusters.Span, m *ghostbusters.Machine) {
	if !rs.Enabled() {
		return
	}
	if transNS := m.TranslateHostNS(); transNS > 0 {
		start := rs.StartNS()
		rs.Emit("translate", start, start+transNS, ghostbusters.SpanInt("ns", transNS))
		rs.Emit("execute", start+transNS, rs.Tracer().Now(), ghostbusters.SpanInt("cycles", int64(m.Cycles())))
	}
	rs.End(ghostbusters.SpanInt("cycles", int64(m.Cycles())))
}

// buildTracer wires the requested sinks. -trace alone records at block
// granularity (the classic stderr log); -traceout records everything
// including per-speculative-load events. A detector rides the same
// stream as a tee observer (it needs spec-level events, so it raises
// the level even without a trace file).
func buildTracer(stderrLog bool, path, format string, det *ghostbusters.Detector) *ghostbusters.Tracer {
	var sinks []ghostbusters.TraceSink
	level := ghostbusters.TraceOff
	if stderrLog {
		sinks = append(sinks, ghostbusters.NewTextSink(os.Stderr))
		level = ghostbusters.TraceBlock
	}
	if path != "" {
		f, err := os.Create(path)
		fail(err)
		traceFile = f
		sink, err := ghostbusters.TraceSinkFor(format, f)
		fail(err)
		traceFileSink = sink
		sinks = append(sinks, sink)
		level = ghostbusters.TraceSpec
	}
	var primary ghostbusters.TraceSink
	switch len(sinks) {
	case 0:
	case 1:
		primary = sinks[0]
	default:
		primary = ghostbusters.NewTraceMultiSink(sinks...)
	}
	switch {
	case det != nil && primary != nil:
		tracer = ghostbusters.NewTracer(ghostbusters.TraceSpec, ghostbusters.NewTraceTee(primary, det))
	case det != nil:
		tracer = ghostbusters.NewTracer(ghostbusters.TraceSpec, det)
	case primary != nil:
		tracer = ghostbusters.NewTracer(level, primary)
	default:
		return nil
	}
	return tracer
}

func fail(err error) {
	if err != nil {
		shutdown()
		fmt.Fprintln(os.Stderr, "gbrun:", err)
		os.Exit(1)
	}
}

// shutdown flushes every buffered output exactly once: pprof profiles,
// the span layer (before the cycle tracer — its Perfetto mirror writes
// into the document the tracer terminates), the trace sink chain, and
// the files themselves.
func shutdown() {
	flushProfiles()
	if spanTracer != nil {
		spanRoot.End()
		if err := spanTracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gbrun: spans:", err)
		}
		spanTracer = nil
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gbrun: spans:", err)
		}
		spanFile = nil
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gbrun: trace:", err)
		}
		tracer = nil
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gbrun: trace:", err)
		}
		traceFile = nil
	}
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
			fmt.Fprintln(os.Stderr, "gbrun:", err)
			return
		}
		defer f.Close()
		runtime.GC() // one final collection for accurate live-heap numbers
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gbrun:", err)
		}
	}
}
