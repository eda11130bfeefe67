// Package ghostbusters is a from-scratch reproduction of "GhostBusters:
// Mitigating Spectre Attacks on a DBT-Based Processor" (Simon Rokicki,
// DATE 2020): a complete DBT-based processor model — RV64IM front end,
// profiling dynamic binary translator with superblock/trace construction
// and memory dependency speculation, and an in-order VLIW core with
// hidden registers, a Memory Conflict Buffer and a timed data cache —
// together with the paper's two Spectre proofs of concept and the
// GhostBusters poison-analysis countermeasure.
//
// The package is a thin facade over the implementation packages:
//
//	internal/riscv     guest ISA: assembler, encoder, interpreter
//	internal/ir        the DBT engine's per-block data-flow graphs
//	internal/core      the GhostBusters mitigation (poison analysis)
//	internal/dbt       translator, scheduler, machine dispatch loop
//	internal/vliw      VLIW target ISA and timed in-order executor
//	internal/cache     set-associative timed data cache (the side channel)
//	internal/attack    Spectre v1/v4 proof-of-concept attacks
//	internal/polybench benchmark kernels + Go reference implementations
//	internal/harness   the paper's experiments (Fig. 4, Section V)
//
// Quick start:
//
//	prog, _ := ghostbusters.Assemble(src)
//	m, _ := ghostbusters.NewMachine(ghostbusters.WithMitigation(
//	        ghostbusters.DefaultConfig(), ghostbusters.ModeGhostBusters))
//	m.Load(prog)
//	res, _ := m.Run()
//	fmt.Println(res.Cycles)
package ghostbusters

import (
	"context"
	"io"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
	"ghostbusters/internal/vliw"
)

// Mode selects the Spectre mitigation applied by the DBT engine.
type Mode = core.Mode

// Mitigation modes (paper Section IV and the baselines of Section V).
const (
	// ModeUnsafe speculates freely: the paper's vulnerable baseline.
	ModeUnsafe = core.ModeUnsafe
	// ModeGhostBusters runs the poison analysis and pins only the risky
	// accesses — the paper's contribution.
	ModeGhostBusters = core.ModeGhostBusters
	// ModeFence disables all speculation across a guard where the
	// Spectre pattern is detected (the paper's fence variant).
	ModeFence = core.ModeFence
	// ModeNoSpeculation turns speculation off entirely (the paper's
	// naive countermeasure).
	ModeNoSpeculation = core.ModeNoSpeculation

	// ModeLoadFence pins every load (the blanket LOADLFENCE strawman,
	// ported into the mitigation-pass pipeline).
	ModeLoadFence = core.ModeLoadFence
	// ModeSFIClamp masks each risky address with an inserted predicate
	// chain (Venkman/Swivel-style SFI); the access keeps speculating
	// with a harmless address.
	ModeSFIClamp = core.ModeSFIClamp
	// ModeFenceMin pins the minimal cut of the poison data-flow graph
	// (Blade-style) instead of every sink.
	ModeFenceMin = core.ModeFenceMin
)

// ParseMode resolves a mitigation mode name: "unsafe", "ghostbusters",
// "fence", "nospec", "loadfence", "sfi-clamp" or "fence-min".
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Config describes a machine instance: mitigation mode, cache geometry,
// VLIW core shape, translation thresholds.
type Config = dbt.Config

// DefaultConfig returns the standard 4-issue machine with a 16 KiB data
// cache and the unsafe (fully speculating) DBT engine.
func DefaultConfig() Config { return dbt.DefaultConfig() }

// WithMitigation returns cfg with the mitigation mode set.
func WithMitigation(cfg Config, m Mode) Config {
	cfg.Mitigation = m
	return cfg
}

// CoreConfig describes the VLIW core geometry.
type CoreConfig = vliw.Config

// Core geometries for the issue-width ablation.
var (
	NarrowCore  = vliw.NarrowConfig  // 2-issue
	DefaultCore = vliw.DefaultConfig // 4-issue (Hybrid-DBT shape)
	WideCore    = vliw.WideConfig    // 8-issue
)

// Machine is the simulated DBT-based processor.
type Machine = dbt.Machine

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) (*Machine, error) { return dbt.New(cfg) }

// Result reports a finished guest run.
type Result = dbt.Result

// Fault is a structured guest trap: the typed error every guest-facing
// failure path of the simulator returns instead of panicking. It
// carries the trap kind, guest PC, faulting address, cycle count and —
// for faults inside translated code — the translated region's entry PC.
// Extract it from an error chain with errors.As.
type Fault = trap.Fault

// TrapKind classifies a Fault (illegal-instruction, misaligned-access,
// out-of-range-access, invalid-branch-target, translation-failure,
// cycle-budget-exceeded, ...).
type TrapKind = trap.Kind

// ErrInterrupted is returned (wrapped) by Machine.Run when the run was
// aborted through Config.Interrupt — the hook tools use for timeouts
// and signal-driven cancellation. Match with errors.Is.
var ErrInterrupted = dbt.ErrInterrupted

// FaultInject configures the deterministic fault-injection layer; set
// Config.FaultInject to enable it.
type FaultInject = dbt.FaultInject

// Stats aggregates machine counters (speculation, recoveries, detected
// Spectre patterns, ...).
type Stats = dbt.Stats

// Audit is the machine-wide poison-provenance audit: for every region
// installed in the translation cache, which loads were analyzed, which
// were found risky and pinned, and the full provenance chain (source
// speculative load → data-flow path → guard) explaining each decision.
// Collected only when Config.Audit is set; read with Machine.Audit.
type Audit = dbt.Audit

// AuditDoc is the audit's stable JSON document (schema AuditSchema),
// written by gbrun -audit-json and gbspectre -audit-json.
type AuditDoc = dbt.AuditDoc

// AuditSchema identifies the audit JSON document format.
const AuditSchema = dbt.AuditSchema

// Tracer is the observability layer's event collector. A nil Tracer (or
// an unset Config.Tracer) costs nothing on the simulator's hot paths;
// an enabled one records typed events — block dispatches, translations,
// speculative loads and squashes, cache flushes, traps —
// timestamped in simulated cycles. Tracers are single-threaded: never
// share one across parallel Runner cells.
type Tracer = obs.Tracer

// TraceLevel selects event density: TraceOff, TraceBlock (block
// granularity) or TraceSpec (adds per-speculative-load events).
type TraceLevel = obs.Level

// Trace levels, coarsest to finest.
const (
	TraceOff   = obs.LevelOff
	TraceBlock = obs.LevelBlock
	TraceSpec  = obs.LevelSpec
)

// TraceSink consumes batches of trace events (text, JSONL, Perfetto).
type TraceSink = obs.Sink

// NewTracer builds a tracer that forwards events to sink (nil sink:
// retain the most recent events in a ring, read back with Events).
func NewTracer(level TraceLevel, sink TraceSink) *Tracer { return obs.New(level, sink) }

// TraceSinkFor resolves a sink by format name: "text", "jsonl", or
// "perfetto" (alias "chrome").
func TraceSinkFor(format string, w io.Writer) (TraceSink, error) { return obs.SinkFor(format, w) }

// DetectConfig tunes the streaming attack-phase detector. The zero
// value selects the documented defaults.
type DetectConfig = detect.Config

// Detector is the online attack-phase detector: a TraceSink that
// consumes the live event stream and classifies simulated-cycle
// windows into benign / prime / trigger / probe, raising an alarm once
// enough prime→trigger rounds have alternated over enough distinct
// cache lines. Attach it as Config.Tracer's sink; read the verdict
// with Report after the run.
type Detector = detect.Detector

// NewDetector builds a detector (zero cfg = defaults).
func NewDetector(cfg DetectConfig) *Detector { return detect.New(cfg) }

// DetectReport is the detector's typed verdict for one run (schema
// DetectReportSchema): alarm, confidence, evidence counters, and the
// inferred phase timeline on the simulated-cycle axis.
type DetectReport = detect.Report

// DetectReportSchema identifies the detection verdict JSON format.
const DetectReportSchema = detect.ReportSchema

// Snapshot is the flat metrics map with stable names produced from a
// finished run (Result.Snapshot, gbrun -stats -json, gbbench -perfjson).
type Snapshot = obs.Snapshot

// Program is an assembled guest image.
type Program = riscv.Program

// Assemble translates RV64IM assembly into a guest program.
func Assemble(src string) (*Program, error) { return riscv.Assemble(src) }

// AttackVariant selects a Spectre proof of concept.
type AttackVariant = attack.Variant

// The two variants demonstrated by the paper (Section III).
const (
	SpectreV1 = attack.V1
	SpectreV4 = attack.V4
)

// AttackParams configures a proof-of-concept run.
type AttackParams = attack.Params

// Attacker flush strategies (the Arm version of the paper uses a
// dedicated flush instruction; the RISC-V version flushes line by line).
const (
	FlushAll        = attack.FlushAll
	FlushLineByLine = attack.FlushLineByLine
)

// AttackResult reports how much of the secret leaked.
type AttackResult = attack.Result

// AttackLeakage is the side-channel scoreboard attached to every
// AttackResult: the ground truth of which secret-dependent cache lines
// the victim speculatively filled, separate from what the attacker's
// timing loop recovered.
type AttackLeakage = attack.Leakage

// RunAttack executes a Spectre proof of concept under cfg and reports
// the recovered secret.
func RunAttack(v AttackVariant, cfg Config, p AttackParams) (*AttackResult, error) {
	return attack.Run(v, cfg, p)
}

// Kernel is a benchmark kernel generator.
type Kernel = polybench.Kernel

// Kernels returns the benchmark suite used by the Figure 4 experiment.
func Kernels() []Kernel { return polybench.All() }

// KernelByName resolves a kernel ("gemm", ..., "matmul-ptr").
func KernelByName(name string) (Kernel, error) { return polybench.ByName(name) }

// Row is one benchmark's cycles and slowdowns across mitigation modes.
// Slowdowns require ModeUnsafe among the measured modes; without the
// baseline the Slowdown map stays empty and tables render "n/a".
type Row = harness.Row

// Fig4Modes are the modes the evaluation compares.
var Fig4Modes = harness.Fig4Modes

// AllModes returns every mitigation mode in mode-value order (the
// four paper modes plus the ported mitigation zoo).
func AllModes() []Mode { return harness.AllModes() }

// Runner is the parallel experiment engine: it fans a (benchmark x
// mode) matrix out over a bounded worker pool, one fresh machine per
// job, with context cancellation, per-run wall-clock timeouts and
// deterministic result ordering. The zero value uses GOMAXPROCS
// workers; set Artifacts to share assembled programs across jobs.
type Runner = harness.Runner

// Bench is one benchmark of a Runner matrix.
type Bench = harness.Bench

// Artifacts is the shared read-mostly cache of generated and assembled
// benchmark programs, deduplicating concurrent builds singleflight-style.
type Artifacts = harness.Artifacts

// NewArtifacts returns an empty artifact cache for use with Runner.
func NewArtifacts() *Artifacts { return harness.NewArtifacts() }

// KernelBench wraps a benchmark kernel for use in a Runner matrix.
func KernelBench(k Kernel, n int) Bench { return harness.KernelBench(k, n) }

// Fig4Benches builds the full Figure 4 benchmark list.
func Fig4Benches(sizeOverride int) []Bench { return harness.Fig4Benches(sizeOverride) }

// RunKernel measures one kernel under the given modes, validating guest
// results against the native reference.
func RunKernel(k Kernel, n int, cfg Config, modes []Mode) (*Row, error) {
	return harness.RunKernel(k, n, cfg, modes)
}

// RunFigure4 runs the full Figure 4 experiment.
func RunFigure4(cfg Config, modes []Mode, sizeOverride int) ([]*Row, error) {
	return harness.Fig4(cfg, modes, sizeOverride)
}

// FormatRows renders a Figure 4-style slowdown table.
func FormatRows(rows []*Row, modes []Mode) string {
	return harness.FormatRows(rows, modes)
}

// LeakMatrix is the machine-readable variants × mitigations leakage
// matrix (schema LeakMatrixSchema): per cell, the scoreboard's
// ground-truth bits leaked and the attack's slowdown versus the unsafe
// baseline.
type LeakMatrix = attack.LeakMatrix

// LeakMatrixSchema identifies the leakage matrix JSON document format.
const LeakMatrixSchema = attack.LeakMatrixSchema

// RunLeakageMatrix runs the Section V-A proof-of-concept matrix — both
// attack variants under every mitigation mode — and returns both
// the rendered table and the machine-readable leakage matrix. Use a
// Runner's PoCMatrix to control parallelism and cancellation.
func RunLeakageMatrix(cfg Config) (string, *LeakMatrix, error) {
	return (&Runner{}).PoCMatrix(context.Background(), cfg)
}

// SpanTracer is the host-side span tracing layer: host-wall-clock spans
// (job phases, matrix cells, translate/execute splits) on a second
// clock domain next to the simulated-cycle trace events. A nil
// SpanTracer — and every Span derived from one — is fully inert and
// allocation-free, so span hooks can stay wired unconditionally.
// Unlike the cycle Tracer, a SpanTracer is safe for concurrent use.
type SpanTracer = hspan.Tracer

// Span is one in-flight host-time span (a value; copy freely). The
// zero Span is disabled.
type Span = hspan.Span

// SpanAttr is one typed span attribute (string or int64).
type SpanAttr = hspan.Attr

// SpanRecord is one finished span, as a SpanTracer.Fork observer
// receives it.
type SpanRecord = hspan.Record

// SpanSchema identifies the span JSONL stream format.
const SpanSchema = obs.SpanSchema

// NewSpanTracer builds a span tracer. Its spans are timed; they reach
// the observers added with Fork.
func NewSpanTracer() *SpanTracer { return hspan.New() }
