// Package detect is an online attack-phase detector for the simulated
// DBT machine: a streaming classifier that consumes the live obs event
// stream (as an obs.Sink, typically in an obs.MultiSink so a trace
// file and the detector observe the same stream) and partitions the run's
// simulated-cycle axis into benign / prime / trigger / probe windows.
//
// The heuristics are the cache-timing-attack shape Spectify-style
// detectors key on, restated in terms this simulator can observe
// exactly instead of sampling:
//
//   - prime:   flush bursts. A Flush+Reload attacker must evict the
//     probe array before every round — cflushall, or a line-by-line
//     cflush sweep. Benign polybench kernels never execute a flush.
//   - trigger: transient refills. A speculative load (EvSpecLoad)
//     that fills a cache line *after* that line was flushed is the
//     transient-execution half of the channel: data entered the cache
//     under speculation into a freshly-primed set. MCB recovery
//     spikes shortly after a prime count as corroborating trigger
//     evidence (the v4 attack round is recovery-heavy).
//   - probe:   the quiet measurement tail that follows — activity
//     with no flushes and no transient refills, within a bounded
//     horizon of the last prime/trigger window.
//
// The alarm itself is event-level, not window-level, so its latency is
// one cycle, not one window: every full (or sufficiently wide) flush
// arms a "primed" latch; the first transient refill while primed
// consumes the latch and counts one prime→trigger round. The detector
// raises the alarm once enough rounds have alternated over enough
// distinct cache lines — a single cold-miss after a benign flush never
// fires, a probe loop walking candidate values does.
//
// Everything is deterministic: same event stream (in any batch
// partitioning) → same Report, byte for byte. The detector allocates
// only on its own slow paths; when it is not attached, the obs layer's
// nil-tracer contract keeps the machine's hot path at 0 allocs/op.
package detect

import (
	"fmt"
	"strings"

	"ghostbusters/internal/obs"
)

// Phase classifies one window of simulated cycles.
type Phase uint8

const (
	// PhaseBenign: no attack-shaped activity.
	PhaseBenign Phase = iota
	// PhasePrime: flush-burst window (cache eviction before a round).
	PhasePrime
	// PhaseTrigger: transient refills landed in primed lines (or MCB
	// recovery spikes inside the attack horizon).
	PhaseTrigger
	// PhaseProbe: post-trigger activity with no priming or refills —
	// the attacker timing its reloads.
	PhaseProbe

	numPhases
)

var phaseNames = [numPhases]string{"benign", "prime", "trigger", "probe"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Config tunes the detector. The zero value selects the defaults
// below; all fields are plain data so a config embeds verbatim into
// the eval doc and the report.
type Config struct {
	// WindowCycles is the classification window on the simulated-cycle
	// axis. Default 1024.
	WindowCycles uint64 `json:"window_cycles"`
	// MinFlushLines arms the primed latch when a line-by-line flush
	// sweep has evicted at least this many lines since the last
	// trigger (a cflushall always arms it). Default 8.
	MinFlushLines uint64 `json:"min_flush_lines"`
	// MinRounds is how many prime→trigger alternations the alarm
	// needs. Default 4.
	MinRounds uint64 `json:"min_rounds"`
	// MinSlots is how many distinct cache lines must have been
	// transiently refilled before the alarm fires. Default 3: even a
	// single-byte leak refills the bounds line, the buffer line and
	// one secret-dependent probe line, while a benign periodic-flush
	// workload re-warming one or two hot lines stays below it.
	MinSlots uint64 `json:"min_slots"`
	// HorizonWindows bounds how far past the last prime/trigger window
	// activity still classifies as probe. Default 8.
	HorizonWindows int64 `json:"horizon_windows"`
	// MaxIntervals caps the report's interval list; further phase
	// changes only update the aggregate counters and set Truncated.
	// Default 256.
	MaxIntervals int `json:"max_intervals"`
}

func (c Config) withDefaults() Config {
	if c.WindowCycles == 0 {
		c.WindowCycles = 1024
	}
	if c.MinFlushLines == 0 {
		c.MinFlushLines = 8
	}
	if c.MinRounds == 0 {
		c.MinRounds = 4
	}
	if c.MinSlots == 0 {
		c.MinSlots = 3
	}
	if c.HorizonWindows == 0 {
		c.HorizonWindows = 8
	}
	if c.MaxIntervals == 0 {
		c.MaxIntervals = 256
	}
	return c
}

// maxTracked bounds every per-line map so an adversarial event stream
// (or the fuzzer) cannot grow detector state without limit. Lines
// beyond the cap still count in the aggregate counters; they just stop
// contributing new generation/slot entries.
const maxTracked = 1 << 15

// window accumulates the features of the current classification
// window; it is reset at every window boundary.
type window struct {
	events       uint64
	flushes      uint64
	fullFlushes  uint64
	flushedLines uint64
	specLoads    uint64
	refills      uint64
	recoveries   uint64
	squashes     uint64
	sideExits    uint64
}

// Detector is the streaming classifier. It implements obs.Sink, so it
// attaches anywhere a sink does — most usefully in an obs.MultiSink
// next to a trace file. Like every sink owned by a tracer it
// is single-goroutine state; under the parallel harness each matrix
// cell builds its own Detector.
type Detector struct {
	cfg Config

	// Window state. Windows are aligned to the absolute cycle grid
	// (window i covers [i*W, (i+1)*W)), so classification is
	// independent of how the tracer batches events.
	started  bool
	winIndex uint64
	w        window
	// lastCycle is the maximum cycle observed; events that arrive
	// out of order (adversarial streams) clamp into the current
	// window rather than rewinding it.
	lastCycle uint64

	// Flush-epoch tracking. gen is a monotone generation counter
	// bumped on every flush; a line's "covering generation" is the
	// newest flush that evicted it (full flush or its own line
	// flush). A speculative load is a transient refill when its
	// line's covering generation is newer than the line's last
	// refill — i.e. the line was flushed and speculation filled it
	// back in.
	gen          uint64
	fullFlushGen uint64
	lineGen      map[uint64]uint64
	refillGen    map[uint64]uint64
	slots        map[uint64]struct{}

	// Alarm state machine.
	primed     bool
	primeLines uint64
	rounds     uint64
	alarmed    bool
	alarmCycle uint64

	// Report accumulators.
	totals       Counters
	phaseWindows [numPhases]uint64
	intervals    []Interval
	truncated    bool
	lastAttack   int64 // window index of the last prime/trigger window, -1 before any
	haveAttack   bool
	finalized    bool
}

// New builds a detector with the given configuration (zero value =
// defaults).
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults(), lastAttack: -1}
}

// WriteEvents feeds a batch of trace events to the classifier. It
// never fails: a detector is a pure observer and must not be able to
// poison the primary trace stream it rides along with.
func (d *Detector) WriteEvents(evs []obs.Event) error {
	if d == nil || d.finalized {
		return nil
	}
	for i := range evs {
		d.event(&evs[i])
	}
	return nil
}

// Close finalizes the last open window. Further writes are ignored.
func (d *Detector) Close() error {
	if d == nil || d.finalized {
		return nil
	}
	if d.started {
		d.closeWindow()
	}
	d.finalized = true
	return nil
}

// event processes one trace event.
func (d *Detector) event(e *obs.Event) {
	w := d.cfg.WindowCycles
	cycle := e.Cycle
	if cycle < d.lastCycle {
		cycle = d.lastCycle // clamp out-of-order events forward
	}
	d.lastCycle = cycle
	idx := cycle / w
	if !d.started {
		d.started = true
		d.winIndex = idx
	} else if idx > d.winIndex {
		d.closeWindow()
		d.winIndex = idx
	} else {
		idx = d.winIndex // late event inside the current window
	}
	d.w.events++

	switch e.Kind {
	case obs.EvCacheFlush:
		d.w.flushes++
		d.w.flushedLines += e.Arg1
		d.totals.Flushes++
		d.totals.FlushedLines += e.Arg1
		d.gen++
		if e.Arg2 == 1 { // cflushall
			d.w.fullFlushes++
			d.totals.FullFlushes++
			d.fullFlushGen = d.gen
			d.primed = true
			d.primeLines = 0
		} else {
			line := e.Arg3 >> 6
			d.setGen(&d.lineGen, line, d.gen)
			d.primeLines += e.Arg1
			if d.primeLines >= d.cfg.MinFlushLines {
				d.primed = true
			}
		}

	case obs.EvSpecLoad:
		d.w.specLoads++
		d.totals.SpecLoads++
		line := e.Arg1 >> 6
		covering := d.fullFlushGen
		if g, ok := d.lineGen[line]; ok && g > covering {
			covering = g
		}
		if covering == 0 {
			return // line never flushed: an ordinary speculative load
		}
		if last, ok := d.refillGen[line]; ok && last >= covering {
			return // already refilled since that flush
		}
		d.setGen(&d.refillGen, line, covering)
		d.w.refills++
		d.totals.TransientRefills++
		if _, ok := d.slots[line]; !ok && len(d.slots) < maxTracked {
			if d.slots == nil {
				d.slots = make(map[uint64]struct{}, 64)
			}
			d.slots[line] = struct{}{}
		}
		if d.primed {
			d.primed = false
			d.primeLines = 0
			d.rounds++
		}
		if !d.alarmed && d.rounds >= d.cfg.MinRounds && uint64(len(d.slots)) >= d.cfg.MinSlots {
			d.alarmed = true
			d.alarmCycle = cycle
		}

	case obs.EvSpecSquash:
		d.w.squashes++
		d.totals.Squashes++
	case obs.EvRecovery:
		d.w.recoveries++
		d.totals.Recoveries++
	case obs.EvSideExit:
		d.w.sideExits++
		d.totals.SideExits++
	}
}

// setGen writes m[line] = g, respecting the tracking cap. Existing
// entries always update (no unbounded growth either way).
func (d *Detector) setGen(m *map[uint64]uint64, line, g uint64) {
	if *m == nil {
		*m = make(map[uint64]uint64, 64)
	}
	if _, ok := (*m)[line]; !ok && len(*m) >= maxTracked {
		return
	}
	(*m)[line] = g
}

// closeWindow classifies the finished window and folds it into the
// report accumulators.
func (d *Detector) closeWindow() {
	w := &d.w
	idx := d.winIndex
	phase := PhaseBenign
	inHorizon := d.haveAttack && int64(idx)-d.lastAttack <= d.cfg.HorizonWindows
	switch {
	case w.refills > 0:
		phase = PhaseTrigger
	case w.recoveries > 0 && inHorizon:
		// MCB recovery spikes right after priming corroborate a
		// trigger even when the refill heuristic missed (the v4 round
		// is recovery-heavy by construction).
		phase = PhaseTrigger
	case w.fullFlushes > 0 || w.flushedLines >= d.cfg.MinFlushLines:
		phase = PhasePrime
	case w.events > 0 && inHorizon:
		phase = PhaseProbe
	}
	if phase == PhasePrime || phase == PhaseTrigger {
		d.lastAttack = int64(idx)
		d.haveAttack = true
	}
	d.phaseWindows[phase]++
	d.totals.Windows++

	if phase != PhaseBenign {
		from := idx * d.cfg.WindowCycles
		to := from + d.cfg.WindowCycles
		if n := len(d.intervals); n > 0 &&
			d.intervals[n-1].Phase == phase.String() && d.intervals[n-1].ToCycle == from {
			d.intervals[n-1].ToCycle = to
			d.intervals[n-1].Rounds = d.rounds
		} else if n < d.cfg.MaxIntervals {
			d.intervals = append(d.intervals, Interval{
				Phase: phase.String(), FromCycle: from, ToCycle: to, Rounds: d.rounds,
			})
		} else {
			d.truncated = true
		}
	}
	d.w = window{}
}

// Alarmed reports whether the alarm has fired so far. Valid mid-stream
// (e.g. for live per-cell alarm counters) as well as after Close.
func (d *Detector) Alarmed() bool { return d != nil && d.alarmed }

// Report finalizes the stream (if Close has not run yet) and builds
// the typed verdict. Calling it repeatedly returns equal values.
//
// When the detector sits behind an obs.Tracer, flush the tracer first:
// the tracer buffers events (obs.DefaultBufferEvents at a time), so a
// Report taken without Tracer.Flush or Tracer.Close misses the
// buffered tail of the run — silently, since a truncated stream is
// indistinguishable from a short one.
func (d *Detector) Report() *Report {
	d.Close()
	cfg := d.cfg
	r := &Report{
		Schema:    ReportSchema,
		Config:    cfg,
		Alarm:     d.alarmed,
		Rounds:    d.rounds,
		Slots:     uint64(len(d.slots)),
		Counters:  d.totals,
		Intervals: append([]Interval(nil), d.intervals...),
		Truncated: d.truncated,
		LastCycle: d.lastCycle,
	}
	if d.alarmed {
		r.AlarmCycle = d.alarmCycle
	}
	r.BenignWindows = d.phaseWindows[PhaseBenign]
	r.PrimeWindows = d.phaseWindows[PhasePrime]
	r.TriggerWindows = d.phaseWindows[PhaseTrigger]
	r.ProbeWindows = d.phaseWindows[PhaseProbe]
	r.Confidence = confidence(cfg, d.rounds, uint64(len(d.slots)))
	return r
}

// confidence maps the two alarm drivers onto [0, 1]: each contributes
// up to 0.5, saturating at twice its alarm threshold. An alarmed run
// therefore always reports ≥ 0.5; a silent run with zero rounds and
// zero slots reports 0. Deterministic by construction (no float
// accumulation across the stream — computed once from two integers).
func confidence(cfg Config, rounds, slots uint64) float64 {
	half := func(v, threshold uint64) float64 {
		f := float64(v) / float64(2*threshold)
		if f > 0.5 {
			f = 0.5
		}
		return f
	}
	if rounds == 0 && slots == 0 {
		return 0
	}
	return half(rounds, cfg.MinRounds) + half(slots, cfg.MinSlots)
}

// Counters are the detector's aggregate evidence counts over the whole
// run — the "triggering counters" of the verdict schema.
type Counters struct {
	Windows          uint64 `json:"windows"`
	Flushes          uint64 `json:"flushes"`
	FullFlushes      uint64 `json:"full_flushes"`
	FlushedLines     uint64 `json:"flushed_lines"`
	SpecLoads        uint64 `json:"spec_loads"`
	TransientRefills uint64 `json:"transient_refills"`
	Squashes         uint64 `json:"squashes"`
	Recoveries       uint64 `json:"recoveries"`
	SideExits        uint64 `json:"side_exits"`
}

// Interval is one maximal run of same-phase windows on the simulated
// cycle axis; [FromCycle, ToCycle). Rounds is the cumulative
// prime→trigger round count when the interval closed, so the interval
// list doubles as the rounds staircase for the Perfetto track.
type Interval struct {
	Phase     string `json:"phase"`
	FromCycle uint64 `json:"from_cycle"`
	ToCycle   uint64 `json:"to_cycle"`
	Rounds    uint64 `json:"rounds,omitempty"`
}

func (d *Detector) String() string {
	if d == nil {
		return "detect: disabled"
	}
	return fmt.Sprintf("detect: rounds=%d slots=%d alarmed=%v", d.rounds, len(d.slots), d.alarmed)
}

// joinPhases renders the per-phase window census compactly.
func joinPhases(r *Report) string {
	parts := []string{
		fmt.Sprintf("%d benign", r.BenignWindows),
		fmt.Sprintf("%d prime", r.PrimeWindows),
		fmt.Sprintf("%d trigger", r.TriggerWindows),
		fmt.Sprintf("%d probe", r.ProbeWindows),
	}
	return strings.Join(parts, ", ")
}
