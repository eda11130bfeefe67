// Package hspan is the host-side span-tracing layer: the second clock
// domain of the observability stack. internal/obs times everything in
// *simulated cycles* — the guest's view of the world — while hspan
// times the *host's* work in wall-clock nanoseconds: job admission,
// queue wait, translation versus execution, retry backoff sleeps,
// drain. hspan only keeps the span clock and the latency histogram;
// obs renders finished spans (obs.SpanWriter writes the span/v1 JSONL
// file and mirrors it into the Perfetto document the cycle tracer
// owns, under a separate process), so a timeline shows what the
// simulated machine did and what it cost the host, side by side.
//
// The contract mirrors obs: a nil *Tracer (and the zero Span) is a
// valid no-op, pinned at 0 allocs per hook by TestDisabledSpansAllocs,
// so span instrumentation can stay unconditionally wired through the
// harness and the service. Unlike obs tracers — single-owner by
// design — an hspan Tracer is safe for concurrent use: the service
// ends spans from many worker goroutines.
//
// Spans form a tree (ID/Parent), and every finished span is handed as
// one Record — name, absolute start/end in Unix nanoseconds, typed
// attributes — to the observers added with Fork.
package hspan

import (
	"sync/atomic"
	"time"

	"ghostbusters/internal/obs"
)

// Attr is one typed span attribute.
type Attr = obs.Attr

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, IsInt: true} }

// Record is one finished span.
type Record = obs.SpanRecord

// Tracer creates spans. A nil *Tracer is a valid no-op: every method
// returns immediately and Start returns the zero Span. Tracers are
// safe for concurrent use. A tracer and all of its forks share one
// clock and one span-ID sequence.
type Tracer struct {
	base     time.Time // monotonic anchor
	baseUnix int64     // base.UnixNano(), fixed at creation
	ids      *atomic.Uint64
	// observe, when non-nil, is called on every record emitted through
	// this tracer (and spans derived from it) — the span file and the
	// service's per-job span buffers ride here.
	observe func(Record)
}

// New builds a tracer. Its spans are timed but go nowhere until Fork
// adds an observer.
func New() *Tracer {
	base := time.Now()
	return &Tracer{base: base, baseUnix: base.UnixNano(), ids: new(atomic.Uint64)}
}

// Fork returns a tracer sharing this one's clock and span-ID sequence,
// with observer called on every record emitted through the fork.
// Observers compose: a fork of a fork calls both, outermost first.
func (t *Tracer) Fork(observer func(Record)) *Tracer {
	if t == nil {
		return nil
	}
	f := *t
	f.observe = observer
	if prev := t.observe; prev != nil {
		f.observe = func(r Record) {
			prev(r)
			observer(r)
		}
	}
	return &f
}

// Now returns the tracer's current timestamp: absolute Unix
// nanoseconds advanced by the monotonic clock. 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.baseUnix + time.Since(t.base).Nanoseconds()
}

// Base returns the tracer's wall-clock anchor (Unix nanoseconds at
// creation) — what obs.SpanHeaderJSON and obs.NewSpanWriter want. 0 on
// a nil tracer.
func (t *Tracer) Base() int64 {
	if t == nil {
		return 0
	}
	return t.baseUnix
}

// Span is a live span handle. It is a small value, copied freely; the
// zero Span (from a nil tracer) is a valid no-op.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	start  int64
	name   string
	attrs  []Attr
}

// Start opens a root span. The attrs are recorded on the span's final
// Record (End may add more). The variadic slice is copied, never
// retained — that keeps it non-escaping, so call sites on a nil tracer
// build it on the stack and the disabled path stays 0 allocs/op.
func (t *Tracer) Start(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	sp := Span{t: t, id: t.ids.Add(1), start: t.Now(), name: name}
	if len(attrs) > 0 {
		sp.attrs = append(make([]Attr, 0, len(attrs)), attrs...)
	}
	return sp
}

// Enabled reports whether the span is live (false for the zero Span).
func (s Span) Enabled() bool { return s.t != nil }

// ID returns the span's ID (0 for the zero Span).
func (s Span) ID() uint64 { return s.id }

// StartNS returns the span's start timestamp on the tracer clock.
func (s Span) StartNS() int64 { return s.start }

// Tracer returns the tracer the span was started on (nil for the zero
// Span) — the handle the harness uses to derive further spans without
// a separate field.
func (s Span) Tracer() *Tracer { return s.t }

// Child opens a span parented under s.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	sp := s.t.Start(name, attrs...)
	sp.parent = s.id
	return sp
}

// End finishes the span and hands its Record to the observers. attrs
// are appended to the ones given at Start. Ending the zero Span, or a
// span of a tracer without observers, does nothing.
func (s Span) End(attrs ...Attr) {
	if s.t == nil || s.t.observe == nil {
		return
	}
	all := s.attrs
	if len(attrs) > 0 {
		all = make([]Attr, 0, len(s.attrs)+len(attrs))
		all = append(all, s.attrs...)
		all = append(all, attrs...)
	}
	s.t.observe(Record{ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, End: s.t.Now(), Attrs: all})
}

// Emit records a synthetic child span of s with explicit timestamps on
// the tracer clock — how the harness splits a cell into its
// translate/execute phases after the fact, from the machine's own
// measurements.
func (s Span) Emit(name string, startNS, endNS int64, attrs ...Attr) {
	if s.t == nil || s.t.observe == nil {
		return
	}
	var all []Attr
	if len(attrs) > 0 {
		// Copy rather than retain, as in Start: the variadic slice
		// stays non-escaping and the disabled path allocation-free.
		all = append(make([]Attr, 0, len(attrs)), attrs...)
	}
	s.t.observe(Record{ID: s.t.ids.Add(1), Parent: s.id, Name: name,
		Start: startNS, End: endNS, Attrs: all})
}
