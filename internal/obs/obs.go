// Package obs is the simulator's observability layer: a typed,
// ring-buffered trace-event pipeline and a unified metrics snapshot.
//
// Every interesting simulator action — translation, block dispatch,
// speculative load issue and squash, side exits, MCB recoveries, cache
// flushes, traps — is an Event timestamped in *simulated cycles* and
// emitted through a Tracer. The Tracer batches events in a fixed,
// preallocated buffer and hands full batches to a Sink (human-readable
// text, JSONL, or Chrome trace-event/Perfetto JSON). With no sink
// attached the buffer degrades to a retain-last ring for post-mortem
// inspection.
//
// obs also renders internal/hspan's host spans, the second clock
// domain: SpanWriter writes the span/v1 stream and mirrors each span
// into the cycle tracer's Perfetto document as a second process.
//
// The whole layer is zero-cost when disabled: a nil *Tracer is a valid
// receiver for every method, the hot-path guards (BlockOn, SpecOn)
// compile down to a nil check plus a byte compare, and the disabled
// emit path is pinned at 0 allocs/op by the package tests.
//
// # Tracer ownership
//
// A Tracer is single-owner, single-goroutine state: it belongs to
// exactly one machine, and only the goroutine driving that machine may
// call Emit/Flush/Close on it. There is no internal locking — the emit
// path is a plain store into a preallocated buffer precisely so that
// tracing at LevelSpec stays cheap. Under the parallel experiment
// harness this means each worker cell must construct its own Tracer
// (and its own Sink, unless the sink is independently synchronized)
// inside its Run function; sharing one Tracer between cells, or
// between a machine and a background reader, is a data race. The
// harness race test (internal/harness, -race with 8 workers) pins this
// contract: N concurrent machines, N private tracers, zero shared
// mutable state.
package obs

import "sort"

// Level selects how much the tracer records.
type Level uint8

const (
	// LevelOff records nothing (equivalent to a nil Tracer).
	LevelOff Level = iota
	// LevelBlock records block-granularity events: translation
	// start/done/fail, mitigation reports, block
	// enter/exit, interp transitions and taken branches, side exits,
	// cache flushes and traps.
	LevelBlock
	// LevelSpec additionally records per-speculative-load events:
	// issue, squash and MCB recovery. The densest (and most
	// Spectre-relevant) view.
	LevelSpec
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvTranslateStart: the DBT engine began translating a region.
	// PC = region entry; Arg1 = 1 when building a trace/superblock.
	EvTranslateStart EventKind = iota
	// EvTranslateDone: translation succeeded. PC = entry;
	// Arg1 = guest instructions; Arg2 = bundles; Arg3 = host
	// translation latency in nanoseconds; Str = "block" or "trace".
	EvTranslateDone
	// EvTranslateFail: translation failed and the region degraded to
	// interpretation. PC = entry; Str = cause.
	EvTranslateFail
	// EvMitigation: the per-block mitigation report at translation
	// time. PC = entry; Arg1 = speculative loads; Arg2 = risky loads
	// (Spectre patterns); Arg3 = guard edges inserted.
	EvMitigation
	// EvBlockEnter: the machine dispatched a translated region.
	// PC = entry; Arg1 = guest instructions; Arg2 = bundles;
	// Str = "block" or "trace".
	EvBlockEnter
	// EvBlockExit: the dispatched region finished. PC = entry;
	// Arg1 = next guest PC; Arg2 = 1 when it left via a side exit;
	// Arg3 = 1 when it faulted.
	EvBlockExit
	// EvInterpEnter: execution fell back from translated code to the
	// interpreter. PC = first interpreted PC.
	EvInterpEnter
	// EvInterpBranch: the interpreter took a branch or jump.
	// PC = branch PC; Arg1 = target; Str = mnemonic.
	EvInterpBranch
	// EvSpecLoad: the VLIW core issued a dismissable (speculative)
	// load. PC = guest PC; Arg1 = effective address.
	EvSpecLoad
	// EvSpecSquash: a dismissable load's fault was squashed and its
	// destination poisoned. PC = guest PC; Arg1 = effective address.
	EvSpecSquash
	// EvSideExit: a trace side exit was taken (static misprediction).
	// PC = exit branch guest PC; Arg1 = exit target.
	EvSideExit
	// EvRecovery: an MCB conflict triggered the block's recovery
	// sequence. PC = guest PC of the recovered load; Arg1 = recovery
	// sequence index.
	EvRecovery
	// EvCacheFlush: the data cache was flushed. Arg1 = lines actually
	// invalidated; Arg2 = 1 for cflushall, 0 for cflush;
	// Arg3 = flushed address (line flush only).
	EvCacheFlush
	// EvTrap: a guest fault was raised. PC = faulting guest PC;
	// Arg1 = faulting address; Str = trap kind name.
	EvTrap
	// EvCounter: a sampled counter value, rendered by the Perfetto
	// sink as a counter track ("C" phase) on the simulated-cycle
	// axis. Str = counter track name (one of the Ctr* constants, or
	// any other static string); Arg1 = value.
	EvCounter

	numEventKinds
)

// Counter track names carried in Event.Str by EvCounter events. They
// are package-level constants so every emission site shares one static
// string (the emit path stays allocation-free) and every consumer sees
// one stable spelling.
const (
	// CtrCacheHitRate: data-cache hit rate in percent (0..100),
	// sampled at block exits.
	CtrCacheHitRate = "cache-hit-rate"
	// CtrMCBOccupancy: outstanding Memory Conflict Buffer entries,
	// sampled when a dismissable load inserts and when a check
	// consumes.
	CtrMCBOccupancy = "mcb-occupancy"
	// CtrPinnedLoads: cumulative count of risky (Spectre-pattern)
	// loads the mitigation pinned, sampled after each translation.
	CtrPinnedLoads = "pinned-loads"
	// CtrLeakedBytes: cumulative secret bytes whose probe line was
	// speculatively filled, sampled by the attack scoreboard at the
	// leaking load.
	CtrLeakedBytes = "leaked-bytes"
	// CtrDetectPhase: the online detector's window classification as a
	// step track (0 benign, 1 prime, 2 trigger, 3 probe), emitted from
	// a detect.Report after the run so the inferred attack timeline
	// overlays the counters it was derived from.
	CtrDetectPhase = "detect-phase"
	// CtrDetectRounds: the detector's cumulative prime→trigger round
	// count at each phase boundary.
	CtrDetectRounds = "detect-rounds"
	// CtrDetectAlarm: 1 at the cycle the detector first raised an
	// attack alarm.
	CtrDetectAlarm = "detect-alarm"
)

// NumEventKinds is the number of defined event kinds.
const NumEventKinds = int(numEventKinds)

var kindNames = [NumEventKinds]string{
	EvTranslateStart: "translate-start",
	EvTranslateDone:  "translate-done",
	EvTranslateFail:  "translate-fail",
	EvMitigation:     "mitigation",
	EvBlockEnter:     "block-enter",
	EvBlockExit:      "block-exit",
	EvInterpEnter:    "interp-enter",
	EvInterpBranch:   "interp-branch",
	EvSpecLoad:       "spec-load",
	EvSpecSquash:     "spec-squash",
	EvSideExit:       "side-exit",
	EvRecovery:       "recovery",
	EvCacheFlush:     "cache-flush",
	EvTrap:           "trap",
	EvCounter:        "counter",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. It is a fixed-size value — emitting one
// never allocates. Cycle is the simulated machine cycle at emission, so
// a whole trace is timed in guest time, not host time; the per-kind
// meaning of PC, Arg1..Arg3 and Str is documented on the EventKind
// constants. Str is always either empty or a reference to a static
// string (mnemonic tables, kind names), never a formatted one, to keep
// the emit path allocation-free.
type Event struct {
	Kind  EventKind
	Cycle uint64
	PC    uint64
	Arg1  uint64
	Arg2  uint64
	Arg3  uint64
	Str   string
}

// Tracer collects events into a fixed buffer. With a sink attached the
// buffer is a batch: filling it flushes all buffered events to the sink
// in emission order. Without a sink it is a retain-last ring: old events
// are overwritten and Events returns the surviving tail.
//
// A nil *Tracer is valid everywhere and records nothing. Tracers are
// not safe for concurrent use; attach one tracer per machine (the
// experiment Runner's parallel cells must not share one).
type Tracer struct {
	level   Level
	sink    Sink
	buf     []Event
	n       int
	wrapped bool
	err     error

	// Counter bookkeeping for the end-of-run samples (sink mode only):
	// every EvCounter that passes through flush records its track's
	// last value and cycle, and the latest cycle of any event is kept,
	// so Close can re-emit each active counter once at the final cycle.
	// Without this, a counter sampled early in a short or interrupted
	// run renders as a track that stops mid-timeline in Perfetto.
	counters map[string]counterSample
	maxCycle uint64
}

// counterSample is the last observed value of one counter track.
type counterSample struct {
	value uint64
	cycle uint64
}

// DefaultBufferEvents is the event capacity of New's batch buffer.
const DefaultBufferEvents = 4096

// New builds a tracer at the given level. sink may be nil, turning the
// buffer into a retain-last ring (inspect with Events).
func New(level Level, sink Sink) *Tracer {
	return NewSized(level, sink, DefaultBufferEvents)
}

// NewSized is New with an explicit buffer capacity (minimum 1).
func NewSized(level Level, sink Sink, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{level: level, sink: sink, buf: make([]Event, capacity)}
}

// Level returns the tracer's level (LevelOff for a nil tracer).
func (t *Tracer) Level() Level {
	if t == nil {
		return LevelOff
	}
	return t.level
}

// BlockOn reports whether block-granularity events should be emitted.
// The nil receiver makes the disabled check a branch, not a crash.
func (t *Tracer) BlockOn() bool { return t != nil && t.level >= LevelBlock }

// SpecOn reports whether per-speculative-load events should be emitted.
func (t *Tracer) SpecOn() bool { return t != nil && t.level >= LevelSpec }

// Emit records one event. On a nil or LevelOff tracer it is a no-op.
// The buffered path never allocates; a full buffer either flushes to
// the sink or wraps the ring. The body is kept small enough to inline
// at the simulator's hot emit sites — store, bump, rare spill.
func (t *Tracer) Emit(e Event) {
	if t == nil || t.level == LevelOff {
		return
	}
	t.buf[t.n] = e
	t.n++
	if t.n == len(t.buf) {
		t.spill()
	}
}

// spill empties a just-filled buffer: batch-flush with a sink attached,
// wrap in place in ring mode. Kept out of line so Emit itself fits the
// compiler's inlining budget — spill runs once per buffer fill, Emit
// runs per event.
//
//go:noinline
func (t *Tracer) spill() {
	if t.sink != nil {
		t.flush()
	} else {
		t.n = 0
		t.wrapped = true
	}
}

// flush hands the buffered batch to the sink. The first sink error is
// latched (returned by Flush/Close) and tracing continues lossily: a
// broken trace file must not abort the simulated run.
func (t *Tracer) flush() {
	if t.n == 0 || t.sink == nil {
		return
	}
	// Counter tracking happens here, off the per-event hot path: one
	// pass over the batch, once per buffer fill.
	for i := 0; i < t.n; i++ {
		e := &t.buf[i]
		if e.Cycle > t.maxCycle {
			t.maxCycle = e.Cycle
		}
		if e.Kind == EvCounter && e.Str != "" {
			if t.counters == nil {
				t.counters = make(map[string]counterSample, 8)
			}
			t.counters[e.Str] = counterSample{value: e.Arg1, cycle: e.Cycle}
		}
	}
	if err := t.sink.WriteEvents(t.buf[:t.n]); err != nil && t.err == nil {
		t.err = err
	}
	t.n = 0
}

// Flush pushes any buffered events to the sink and reports the first
// sink error seen so far. No-op without a sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.flush()
	return t.err
}

// Close flushes, emits one final sample of every active counter at the
// run's last observed cycle, and closes the sink. The final samples
// make counter tracks span the whole timeline even for short or
// truncated (interrupted, exit-code-4) runs, where a track would
// otherwise end at its last organic sample and render as a stub in
// Perfetto. The tracer must not be used after Close.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.flush()
	t.finalCounterSamples()
	if t.sink != nil {
		if err := t.sink.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// finalCounterSamples re-emits the last value of each counter track at
// the latest cycle the trace reached, in sorted track order so output
// is deterministic. Counters already sampled at the final cycle are
// not duplicated.
func (t *Tracer) finalCounterSamples() {
	if t.sink == nil || len(t.counters) == 0 {
		return
	}
	names := make([]string, 0, len(t.counters))
	for name, s := range t.counters {
		if s.cycle < t.maxCycle {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	final := make([]Event, len(names))
	for i, name := range names {
		final[i] = Event{Kind: EvCounter, Cycle: t.maxCycle,
			Arg1: t.counters[name].value, Str: name}
	}
	if err := t.sink.WriteEvents(final); err != nil && t.err == nil {
		t.err = err
	}
}

// Events returns the retained events in emission order. Only meaningful
// in ring mode (no sink); with a sink attached it returns whatever has
// not been flushed yet.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, t.n)
		copy(out, t.buf[:t.n])
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.n:]...)
	out = append(out, t.buf[:t.n]...)
	return out
}
