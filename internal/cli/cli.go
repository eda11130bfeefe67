// Package cli is the wiring the run CLIs (gbrun, gbbench, gbspectre,
// gbserve) share: small flag groups, the files and tracers those flags
// open, one close order and one exit policy.
//
// A binary builds a Tool, registers the groups it offers, calls Parse
// and then Start. From then on every exit goes through Close (success)
// or Fail (error). Close runs once, in a fixed order:
//
//  1. the span root and the span tracer, then the span file — the
//     Perfetto mirror of the spans writes into the document the cycle
//     tracer terminates, so spans must go first;
//  2. the cycle tracer (flushing the -traceout stream and the
//     detector), then the trace file;
//  3. the pprof CPU and heap profiles;
//  4. the translation-cache summary and its Err() warning on stderr.
//
// Exit codes: Fail exits 4 when the run was interrupted (SIGINT/SIGTERM
// on the Start context, or dbt.ErrInterrupted in the error chain), 3 on
// a guest trap (trap.As), 1 otherwise. Usage errors — including a bad
// -width and a negative retry flag — exit 2.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/trap"
	"ghostbusters/internal/vliw"
)

// Exit codes shared by the run CLIs (0 and the guest's own exit code
// aside).
const (
	ExitError       = 1 // host-side error
	ExitUsage       = 2 // bad flags or arguments
	ExitGuestTrap   = 3 // the run died on a structured guest trap
	ExitInterrupted = 4 // SIGINT/SIGTERM cancelled the run
)

// Tool is one CLI process's shared flags and the resources they open.
type Tool struct {
	name string
	// Log carries every diagnostic the Tool writes, each prefixed with
	// the binary's name (stderr, no timestamps by default).
	Log  *log.Logger
	exit func(int) // os.Exit, replaced by tests

	// Values of the registered flag groups; zero when a group is not
	// registered.
	TCache      bool
	TCacheDir   string
	SpansPath   string
	StderrTrace bool
	TraceOut    string
	TraceFormat string
	Detect      bool
	DetectJSON  string
	Audit       bool
	AuditJSON   string
	CPUProfile  string
	MemProfile  string
	Retries     int
	Backoff     harness.Backoff
	width       *Width

	ctx        context.Context
	stop       context.CancelFunc
	cache      *tcache.Cache
	det        *detect.Detector
	tracer     *obs.Tracer
	traceFile  *os.File
	traceSink  obs.Sink
	spans      *hspan.Tracer
	spanFile   *os.File
	root       hspan.Span
	cpuProfile *os.File
	closed     bool
}

// New returns the Tool of the binary called name.
func New(name string) *Tool {
	return &Tool{name: name, Log: log.New(os.Stderr, "", 0), exit: os.Exit}
}

// TCacheFlags registers -tcache and -tcache-dir.
func (t *Tool) TCacheFlags() {
	flag.BoolVar(&t.TCache, "tcache", false, "persist translated code across runs (default cache dir)")
	flag.StringVar(&t.TCacheDir, "tcache-dir", "", "translation cache directory (implies -tcache)")
}

// SpanFlags registers -spans.
func (t *Tool) SpanFlags() {
	flag.StringVar(&t.SpansPath, "spans", "", "write the host-side span timeline (JSONL, schema ghostbusters/span/v1) to this file; mirrored into a perfetto -traceout")
}

// TraceFlags registers -traceout and -trace-format, plus gbrun's
// stderr -trace log when stderrLog is set.
func (t *Tool) TraceFlags(stderrLog bool) {
	if stderrLog {
		flag.BoolVar(&t.StderrTrace, "trace", false, "log every block dispatch and taken branch to stderr")
	}
	flag.StringVar(&t.TraceOut, "traceout", "", "write the trace event stream to this file")
	flag.StringVar(&t.TraceFormat, "trace-format", "perfetto", "trace file format: text | jsonl | perfetto")
}

// DetectFlags registers the single-run -detect and -detect-json.
func (t *Tool) DetectFlags() {
	flag.BoolVar(&t.Detect, "detect", false, "run the online attack-phase detector and print its verdict")
	flag.StringVar(&t.DetectJSON, "detect-json", "", "write the detection verdict as JSON (schema ghostbusters/detect/v1) to this file")
}

// AuditFlags registers -audit and -audit-json.
func (t *Tool) AuditFlags() {
	flag.BoolVar(&t.Audit, "audit", false, "collect poison provenance and print the audit table")
	flag.StringVar(&t.AuditJSON, "audit-json", "", "write the audit as JSON (schema ghostbusters/audit/v1) to this file")
}

// ProfileFlags registers -cpuprofile and -memprofile.
func (t *Tool) ProfileFlags() {
	flag.StringVar(&t.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
	flag.StringVar(&t.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
}

// WidthFlag registers -width (default 4).
func (t *Tool) WidthFlag() {
	t.width = &Width{}
	if err := t.width.Set("4"); err != nil {
		panic(err)
	}
	flag.Var(t.width, "width", "VLIW issue `width`: 2, 4 or 8")
}

// Width is the -width flag value, validated by vliw.ConfigForWidth as
// it is parsed, so a bad width is a usage error.
type Width struct {
	n    int
	core vliw.Config
}

func (w *Width) String() string { return strconv.Itoa(w.n) }

func (w *Width) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	core, err := vliw.ConfigForWidth(n)
	if err != nil {
		return err
	}
	w.n, w.core = n, core
	return nil
}

// RetryFlags registers -retries, -retry-backoff, -retry-backoff-max and
// -retry-seed: the transient-fault retry policy of a harness.Runner
// (Retries, Backoff). backoff is the -retry-backoff default.
func (t *Tool) RetryFlags(backoff time.Duration) {
	flag.IntVar(&t.Retries, "retries", 0, "retry attempts per run after a transient (injected) fault")
	flag.DurationVar(&t.Backoff.Base, "retry-backoff", backoff, "base pause before the first retry; doubles per attempt, with deterministic jitter")
	flag.DurationVar(&t.Backoff.Max, "retry-backoff-max", 0, "cap on the per-retry pause (0 = 8x the base)")
	flag.Uint64Var(&t.Backoff.Seed, "retry-seed", 0, "seed for the deterministic backoff jitter")
}

// Parse parses the command line and validates the shared groups.
func (t *Tool) Parse() {
	flag.Parse()
	if t.Retries < 0 || t.Backoff.Base < 0 || t.Backoff.Max < 0 {
		t.UsageError("-retries, -retry-backoff and -retry-backoff-max must be >= 0")
	}
}

// Start opens what the parsed flags ask for — the CPU profile, the
// SIGINT/SIGTERM context, the translation cache, the trace file with
// the detector teed in, the span file — and wires the machine-level
// parts into cfg: core geometry, audit collection and the tracer. root
// names the span tree's root span (empty: no root). The returned
// context is cancelled by SIGINT/SIGTERM.
func (t *Tool) Start(cfg *dbt.Config, root string, attrs ...hspan.Attr) context.Context {
	if t.CPUProfile != "" {
		t.cpuProfile = t.create(t.CPUProfile)
		t.Fail(pprof.StartCPUProfile(t.cpuProfile))
	}
	t.ctx, t.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if t.TCache || t.TCacheDir != "" {
		dir := t.TCacheDir
		if dir == "" {
			var err error
			dir, err = tcache.DefaultDir()
			t.Fail(err)
		}
		t.cache = tcache.New(dir)
	}
	if t.width != nil {
		cfg.Core = t.width.core
	}
	if t.Audit || t.AuditJSON != "" {
		cfg.Audit = true
	}
	if tr := t.startTracer(); tr != nil {
		cfg.Tracer = tr
	}
	if t.SpansPath != "" {
		t.spanFile = t.create(t.SpansPath)
		var sink hspan.Sink = hspan.NewJSONLSink(t.spanFile)
		if doc, ok := t.traceSink.(*obs.PerfettoSink); ok {
			sink = hspan.NewMultiSink(sink, hspan.NewPerfettoSink(doc))
		}
		t.spans = hspan.New(sink)
		if root != "" {
			t.root = t.spans.Start(root, attrs...)
		}
	}
	return t.ctx
}

// startTracer builds the cycle tracer: -trace alone logs at block
// granularity to stderr; -traceout records everything including
// per-speculative-load events; a detector rides the same stream next
// to them (it needs spec-level events, so it raises the level even
// without a trace file). nil when nothing asks for events.
func (t *Tool) startTracer() *obs.Tracer {
	var sink obs.Sink
	level := obs.LevelSpec
	if t.StderrTrace {
		sink, level = obs.NewTextSink(os.Stderr), obs.LevelBlock
	}
	if t.TraceOut != "" {
		t.traceFile = t.create(t.TraceOut)
		var err error
		t.traceSink, err = obs.SinkFor(t.TraceFormat, t.traceFile)
		t.Fail(err)
		level = obs.LevelSpec
		if sink == nil {
			sink = t.traceSink
		} else {
			sink = obs.NewMultiSink(sink, t.traceSink)
		}
	}
	if t.Detect || t.DetectJSON != "" {
		t.det = detect.New(detect.Config{})
		level = obs.LevelSpec
		if sink == nil {
			sink = t.det
		} else {
			sink = obs.NewMultiSink(sink, t.det)
		}
	}
	if sink == nil {
		return nil
	}
	t.tracer = obs.New(level, sink)
	return t.tracer
}

// TransCache is the -tcache translation cache (nil when off).
func (t *Tool) TransCache() *tcache.Cache { return t.cache }

// Spans is the -spans tracer (nil when off).
func (t *Tool) Spans() *hspan.Tracer { return t.spans }

// Root is the root span Start opened (the zero Span when off); Close
// ends it.
func (t *Tool) Root() hspan.Span { return t.root }

// StopSignals restores the default SIGINT/SIGTERM handling, so a
// second signal kills the process.
func (t *Tool) StopSignals() {
	if t.stop != nil {
		t.stop()
	}
}

// Verdict flushes the stream's tail into the detector, appends the
// inferred phase/rounds/alarm tracks to the still-open trace, writes
// -detect-json and returns the report. nil with detection off.
func (t *Tool) Verdict() *detect.Report {
	if t.det == nil {
		return nil
	}
	_ = t.tracer.Flush() // a trace-file error resurfaces from Close
	rep := t.det.Report()
	rep.EmitTracks(t.tracer)
	if t.DetectJSON != "" {
		out, err := rep.JSON()
		t.Fail(err)
		t.Fail(os.WriteFile(t.DetectJSON, out, 0o644))
	}
	return rep
}

// WriteAudit prints the explainability table (-audit) and writes the
// JSON document (-audit-json) of a collected audit. No-op when neither
// flag is set.
func (t *Tool) WriteAudit(aud *dbt.Audit) {
	if !t.Audit && t.AuditJSON == "" {
		return
	}
	if aud == nil {
		t.Fail(errors.New("audit requested but none collected"))
	}
	if t.Audit {
		fmt.Print(aud.Format())
	}
	if t.AuditJSON != "" {
		out, err := json.MarshalIndent(aud.Doc(), "", "  ")
		t.Fail(err)
		t.Fail(os.WriteFile(t.AuditJSON, append(out, '\n'), 0o644))
	}
}

// Close flushes and closes everything Start opened, in the package's
// fixed order. Safe to call more than once; only the first call acts.
func (t *Tool) Close() {
	if t.closed {
		return
	}
	t.closed = true
	if t.spans != nil {
		t.root.End()
		t.warn("spans", t.spans.Close())
		t.warn("spans", t.spanFile.Close())
	}
	if t.tracer != nil {
		t.warn("trace", t.tracer.Close())
	}
	if t.traceFile != nil {
		t.warn("trace", t.traceFile.Close())
	}
	if t.cpuProfile != nil {
		pprof.StopCPUProfile()
		t.warn("cpuprofile", t.cpuProfile.Close())
	}
	if t.MemProfile != "" {
		f, err := os.Create(t.MemProfile)
		if err == nil {
			runtime.GC() // one final collection for accurate live-heap numbers
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		t.warn("memprofile", err)
	}
	if t.cache != nil {
		hits, misses, persisted := t.cache.Stats()
		t.logf("tcache: %d hits, %d misses, %d documents written", hits, misses, persisted)
		if err := t.cache.Err(); err != nil {
			t.logf("warning: %v", err)
		}
	}
	t.StopSignals()
}

// Interrupted reports whether err ended a run cancelled by SIGINT or
// SIGTERM (or through the machine's interrupt hook). Only meaningful
// before Close, which cancels the signal context.
func (t *Tool) Interrupted(err error) bool {
	return errors.Is(err, dbt.ErrInterrupted) || (t.ctx != nil && t.ctx.Err() != nil)
}

// Fail does nothing for a nil err. Otherwise it closes the Tool, reports
// err and exits with the package's exit policy.
func (t *Tool) Fail(err error) {
	if err == nil {
		return
	}
	interrupted := t.Interrupted(err) // before Close cancels the signal context
	t.Close()
	code := ExitError
	switch f := trap.As(err); {
	case interrupted:
		t.logf("interrupted: %v", err)
		code = ExitInterrupted
	case f != nil:
		t.logf("%v", err)
		region := ""
		if f.Block != 0 {
			region = fmt.Sprintf(" region=%#x", f.Block)
		}
		t.logf("guest trap: kind=%s pc=%#x addr=%#x cycle=%d%s", f.Kind, f.PC, f.Addr, f.Cycle, region)
		code = ExitGuestTrap
	default:
		t.logf("%v", err)
	}
	t.exit(code)
}

// UsageError closes the Tool, reports a usage error with the flag
// defaults and exits 2.
func (t *Tool) UsageError(format string, args ...any) {
	t.Close()
	t.logf(format, args...)
	flag.Usage()
	t.exit(ExitUsage)
}

func (t *Tool) create(path string) *os.File {
	f, err := os.Create(path)
	t.Fail(err)
	return f
}

func (t *Tool) warn(what string, err error) {
	if err != nil {
		t.logf("%s: %v", what, err)
	}
}

func (t *Tool) logf(format string, args ...any) {
	t.Log.Printf(t.name+": "+format, args...)
}
