package obs

import (
	"fmt"
	"io"
	"unicode/utf8"
)

// Sink consumes batches of trace events. WriteEvents receives events in
// emission order; the slice is only valid for the duration of the call.
// Close finalises the output (document terminators); it does not close
// the underlying writer (the caller owns the file).
//
// The built-in sinks format each batch with append helpers into a
// reusable scratch buffer and hand it to the writer in one Write call —
// at block granularity a benchmark run emits millions of events, and
// both per-event fmt formatting and per-line buffered writes were
// dominant costs of tracing.
type Sink interface {
	WriteEvents([]Event) error
	Close() error
}

// SinkFor builds the sink named by format ("text", "jsonl" or
// "perfetto") over w. It is the single resolver behind every CLI's
// -trace-format flag, so the accepted names stay consistent.
func SinkFor(format string, w io.Writer) (Sink, error) {
	switch format {
	case "text":
		return NewTextSink(w), nil
	case "jsonl":
		return NewJSONLSink(w), nil
	case "perfetto", "chrome":
		return NewPerfettoSink(w), nil
	default:
		return nil, fmt.Errorf("obs: unknown trace format %q (want text|jsonl|perfetto)", format)
	}
}

// MultiSink fans each batch out to several sinks (e.g. the
// human-readable stderr log, a Perfetto file and the online attack
// detector). The first error from
// any sink is returned, but every sink still sees every batch.
type MultiSink []Sink

// NewMultiSink bundles sinks into one.
func NewMultiSink(sinks ...Sink) MultiSink { return MultiSink(sinks) }

func (m MultiSink) WriteEvents(evs []Event) error {
	var first error
	for _, s := range m {
		if err := s.WriteEvents(evs); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// digits2 is the 00..99 lookup pair table for appendDec.
const digits2 = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDec renders v in decimal, two digits per division — what
// strconv.AppendUint(b, v, 10) does minus the generic-base dispatch,
// worth it because a block-granularity trace formats several integers
// per event, millions of times per run.
func appendDec(b []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for v >= 100 {
		q := v / 100
		r := (v - q*100) * 2
		i -= 2
		tmp[i] = digits2[r]
		tmp[i+1] = digits2[r+1]
		v = q
	}
	i--
	tmp[i] = digits2[v*2+1]
	if v >= 10 {
		i--
		tmp[i] = digits2[v*2]
	}
	return append(b, tmp[i:]...)
}

// appendCycle renders the classic "[%12d] " line prefix.
func appendCycle(b []byte, v uint64) []byte {
	var tmp [20]byte
	n := appendDec(tmp[:0], v)
	b = append(b, '[')
	for i := len(n); i < 12; i++ {
		b = append(b, ' ')
	}
	b = append(b, n...)
	return append(b, ']', ' ')
}

const hexDigits = "0123456789abcdef"

// appendHex renders v the way fmt's %#x does ("0x1a"; zero is "0x0").
func appendHex(b []byte, v uint64) []byte {
	b = append(b, '0', 'x')
	if v == 0 {
		return append(b, '0')
	}
	var tmp [16]byte
	i := len(tmp)
	for v != 0 {
		i--
		tmp[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return append(b, tmp[i:]...)
}

// jsonShort holds the control bytes that JSON escapes by a letter.
var jsonShort = [0x20]byte{'\t': 't', '\n': 'n', '\r': 'r'}

// appendJSONString renders s as a quoted JSON string: quotes and
// backslashes escaped, control bytes as \n, \r, \t or \u00XX, and each
// byte of invalid UTF-8 as \ufffd. Other runes, DEL included, are
// copied in runs, which is all of almost every Event.Str.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i, r := range s {
		if r >= 0x20 && r != '"' && r != '\\' && r != utf8.RuneError {
			continue
		}
		b = append(b, s[start:i]...)
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r == utf8.RuneError:
			b = append(b, `\ufffd`...)
		case jsonShort[r] != 0:
			b = append(b, '\\', jsonShort[r])
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[r>>4], hexDigits[r&0xf])
		}
		_, n := utf8.DecodeRuneInString(s[i:])
		start = i + n
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// TextSink renders events as the human-readable line format gbrun
// -trace has always printed ("[cycle] exec block @pc ..."), formatting
// each batch into a reusable scratch buffer and writing it in one call
// rather than one write per line.
type TextSink struct {
	w   io.Writer
	buf []byte // batch scratch, reused across WriteEvents calls
}

// NewTextSink builds a text sink over w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

func (s *TextSink) WriteEvents(evs []Event) error {
	b := s.buf[:0]
	for i := range evs {
		e := &evs[i]
		b = appendCycle(b, e.Cycle)
		switch e.Kind {
		case EvBlockEnter:
			// The legacy gbrun -trace dispatch line, verbatim.
			b = append(b, "exec "...)
			b = append(b, e.Str...)
			b = append(b, " @"...)
			b = appendHex(b, e.PC)
			b = append(b, " ("...)
			b = appendDec(b, e.Arg1)
			b = append(b, " insts, "...)
			b = appendDec(b, e.Arg2)
			b = append(b, " bundles)"...)
		case EvInterpBranch:
			// The legacy interpreted-control-transfer line, verbatim.
			b = append(b, "interp "...)
			b = append(b, e.Str...)
			b = append(b, " @"...)
			b = appendHex(b, e.PC)
			b = append(b, " -> "...)
			b = appendHex(b, e.Arg1)
		case EvBlockExit:
			b = append(b, "exit @"...)
			b = appendHex(b, e.PC)
			b = append(b, " -> "...)
			b = appendHex(b, e.Arg1)
			b = append(b, " (side-exit="...)
			b = appendDec(b, e.Arg2)
			b = append(b, " fault="...)
			b = appendDec(b, e.Arg3)
			b = append(b, ')')
		case EvTranslateStart:
			b = append(b, "translate-start @"...)
			b = appendHex(b, e.PC)
			b = append(b, " (trace="...)
			b = appendDec(b, e.Arg1)
			b = append(b, ')')
		case EvTranslateDone:
			b = append(b, "translate-done "...)
			b = append(b, e.Str...)
			b = append(b, " @"...)
			b = appendHex(b, e.PC)
			b = append(b, " ("...)
			b = appendDec(b, e.Arg1)
			b = append(b, " insts, "...)
			b = appendDec(b, e.Arg2)
			b = append(b, " bundles, "...)
			b = appendDec(b, e.Arg3)
			b = append(b, "ns host)"...)
		case EvTranslateFail:
			b = append(b, "translate-fail @"...)
			b = appendHex(b, e.PC)
			b = append(b, ": "...)
			b = append(b, e.Str...)
		case EvMitigation:
			b = append(b, "mitigation @"...)
			b = appendHex(b, e.PC)
			b = append(b, ": spec-loads="...)
			b = appendDec(b, e.Arg1)
			b = append(b, " risky="...)
			b = appendDec(b, e.Arg2)
			b = append(b, " guard-edges="...)
			b = appendDec(b, e.Arg3)
		case EvInterpEnter:
			b = append(b, "interp-enter @"...)
			b = appendHex(b, e.PC)
		case EvSpecLoad:
			b = append(b, "spec-load @"...)
			b = appendHex(b, e.PC)
			b = append(b, " addr="...)
			b = appendHex(b, e.Arg1)
		case EvSpecSquash:
			b = append(b, "spec-squash @"...)
			b = appendHex(b, e.PC)
			b = append(b, " addr="...)
			b = appendHex(b, e.Arg1)
		case EvSideExit:
			b = append(b, "side-exit @"...)
			b = appendHex(b, e.PC)
			b = append(b, " -> "...)
			b = appendHex(b, e.Arg1)
		case EvRecovery:
			b = append(b, "recovery @"...)
			b = appendHex(b, e.PC)
			b = append(b, " (seq "...)
			b = appendDec(b, e.Arg1)
			b = append(b, ')')
		case EvCacheFlush:
			b = append(b, "cache-flush lines="...)
			b = appendDec(b, e.Arg1)
			b = append(b, " all="...)
			b = appendDec(b, e.Arg2)
			b = append(b, " addr="...)
			b = appendHex(b, e.Arg3)
		case EvTrap:
			b = append(b, "trap "...)
			b = append(b, e.Str...)
			b = append(b, " @"...)
			b = appendHex(b, e.PC)
			b = append(b, " addr="...)
			b = appendHex(b, e.Arg1)
		case EvCounter:
			b = append(b, "counter "...)
			b = append(b, e.Str...)
			b = append(b, '=')
			b = appendDec(b, e.Arg1)
		default:
			b = append(b, e.Kind.String()...)
			b = append(b, " @"...)
			b = appendHex(b, e.PC)
		}
		b = append(b, '\n')
	}
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// Close is a no-op: every batch is written eagerly, nothing buffers.
func (s *TextSink) Close() error { return nil }

// JSONLSink renders one JSON object per event per line — the
// machine-readable stream for ad-hoc tooling (jq, scripts). Every
// object has the same shape: kind, cycle, pc (hex string), a1..a3
// (omitted when zero), and s when non-empty.
//
// The sink formats each batch into one reusable scratch buffer and
// hands it to the writer in a single Write — tracing at block
// granularity produces millions of lines, and a per-line buffered
// write (bufio round-trip plus copy) was measurably slower than one
// large write per 4096-event batch.
type JSONLSink struct {
	w   io.Writer
	buf []byte // batch scratch, reused across WriteEvents calls
}

// NewJSONLSink builds a JSONL sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

func (s *JSONLSink) WriteEvents(evs []Event) error {
	b := s.buf[:0]
	for i := range evs {
		e := &evs[i]
		b = append(b, `{"kind":"`...)
		b = append(b, e.Kind.String()...) // static table, no escaping needed
		b = append(b, `","cycle":`...)
		b = appendDec(b, e.Cycle)
		b = append(b, `,"pc":"`...)
		b = appendHex(b, e.PC)
		b = append(b, '"')
		if e.Arg1 != 0 {
			b = append(b, `,"a1":`...)
			b = appendDec(b, e.Arg1)
		}
		if e.Arg2 != 0 {
			b = append(b, `,"a2":`...)
			b = appendDec(b, e.Arg2)
		}
		if e.Arg3 != 0 {
			b = append(b, `,"a3":`...)
			b = appendDec(b, e.Arg3)
		}
		if e.Str != "" {
			b = append(b, `,"s":`...)
			b = appendJSONString(b, e.Str)
		}
		b = append(b, '}', '\n')
	}
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// Close is a no-op: every batch is written eagerly, nothing buffers.
func (s *JSONLSink) Close() error { return nil }

// PerfettoSink renders the trace in the Chrome trace-event JSON format,
// loadable by ui.perfetto.dev and chrome://tracing. Timestamps are
// *simulated cycles* (the format's nominal microseconds), so the
// viewer's timeline is guest time: a Spectre PoC's probe-loop
// speculation shows up exactly where the simulated machine spent its
// cycles, independent of host speed.
//
// Tracks: tid 0 "execution" carries block enter/exit spans plus interp
// and trap instants; tid 1 "translation" the DBT engine's events; tid 2
// "speculation" the per-load issue/squash/recovery instants; tid 3
// "memory" cache flushes. EvCounter events render as "C"-phase counter
// tracks (one per counter name — cache hit rate, MCB occupancy, pinned
// loads, leaked bytes), so the attack timeline and the leakage it
// causes share one simulated-cycle axis in the viewer.
type PerfettoSink struct {
	w     io.Writer
	buf   []byte // batch scratch, reused across WriteEvents calls
	wrote bool   // at least one event element emitted (comma handling)
	open  bool   // preamble written
}

// NewPerfettoSink builds a Chrome trace-event sink over w.
func NewPerfettoSink(w io.Writer) *PerfettoSink {
	return &PerfettoSink{w: w}
}

const (
	tidExec  = 0
	tidTrans = 1
	tidSpec  = 2
	tidMem   = 3
	tidCtr   = 4
)

// lane maps each event kind to its trace-event phase and track.
var lane = [NumEventKinds]struct {
	ph  byte
	tid uint8
}{
	EvTranslateStart: {'i', tidTrans},
	EvTranslateDone:  {'i', tidTrans},
	EvTranslateFail:  {'i', tidTrans},
	EvMitigation:     {'i', tidTrans},
	EvBlockEnter:     {'B', tidExec},
	EvBlockExit:      {'E', tidExec},
	EvInterpEnter:    {'i', tidExec},
	EvInterpBranch:   {'i', tidExec},
	EvSpecLoad:       {'i', tidSpec},
	EvSpecSquash:     {'i', tidSpec},
	EvSideExit:       {'i', tidExec},
	EvRecovery:       {'i', tidSpec},
	EvCacheFlush:     {'i', tidMem},
	EvTrap:           {'i', tidExec},
	EvCounter:        {'C', tidCtr},
}

// perfettoPreamble opens the document and names the simulator process
// and its tracks, so the viewer shows semantic lanes.
const perfettoPreamble = `{"displayTimeUnit":"ns","otherData":{"timestamps":"simulated cycles"},"traceEvents":[` + "\n" +
	`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"ghostbusters-sim"}},` + "\n" +
	`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"execution"}},` + "\n" +
	`{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"translation"}},` + "\n" +
	`{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"speculation"}},` + "\n" +
	`{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"memory"}},` + "\n" +
	`{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"counters"}}`

func (s *PerfettoSink) preamble() error {
	if s.open {
		return nil
	}
	s.open, s.wrote = true, true
	_, err := io.WriteString(s.w, perfettoPreamble)
	return err
}

// appendName renders `name@0xPC`. Names come from static tables (op
// mnemonics, kind names, trap kinds), never free text, so they need no
// JSON escaping.
func appendName(b []byte, name string, pc uint64) []byte {
	b = append(b, name...)
	b = append(b, '@')
	return appendHex(b, pc)
}

// appendHexField renders `"key":"0x.."` (no separators — the caller
// places commas and braces).
func appendHexField(b []byte, key string, v uint64) []byte {
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":"`...)
	b = appendHex(b, v)
	return append(b, '"')
}

// appendIntField renders `"key":v`.
func appendIntField(b []byte, key string, v uint64) []byte {
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return appendDec(b, v)
}

func (s *PerfettoSink) WriteEvents(evs []Event) error {
	if err := s.preamble(); err != nil {
		return err
	}
	b := s.buf[:0]
	for i := range evs {
		e := &evs[i]
		ln := lane[0]
		if int(e.Kind) < len(lane) {
			ln = lane[e.Kind]
		}
		if ln.ph == 0 {
			ln.ph, ln.tid = 'i', tidExec
		}

		if s.wrote {
			b = append(b, ',', '\n')
		}
		s.wrote = true
		// Common envelope first; JSON objects are unordered, so name and
		// args trail where one switch can build both.
		b = append(b, `{"cat":"sim","ph":"`...)
		b = append(b, ln.ph)
		b = append(b, `","ts":`...)
		b = appendDec(b, e.Cycle)
		b = append(b, `,"pid":0,"tid":`...)
		b = appendDec(b, uint64(ln.tid))
		if ln.ph == 'i' {
			b = append(b, `,"s":"t"`...)
		}
		b = append(b, `,"name":"`...)
		switch e.Kind {
		case EvBlockEnter:
			b = appendName(b, e.Str, e.PC)
			b = append(b, `","args":{`...)
			b = appendIntField(b, "guest_insts", e.Arg1)
			b = append(b, ',')
			b = appendIntField(b, "bundles", e.Arg2)
			b = append(b, '}')
		case EvBlockExit:
			b = append(b, `","args":{`...) // span ends carry no name
			b = appendHexField(b, "next_pc", e.Arg1)
			b = append(b, ',')
			b = appendIntField(b, "side_exit", e.Arg2)
			b = append(b, ',')
			b = appendIntField(b, "fault", e.Arg3)
			b = append(b, '}')
		case EvInterpEnter:
			b = appendName(b, "interp", e.PC)
			b = append(b, '"')
		case EvInterpBranch:
			b = appendName(b, e.Str, e.PC)
			b = append(b, `","args":{`...)
			b = appendHexField(b, "target", e.Arg1)
			b = append(b, '}')
		case EvTranslateStart:
			b = appendName(b, "translate-start", e.PC)
			b = append(b, `","args":{`...)
			b = appendIntField(b, "trace", e.Arg1)
			b = append(b, '}')
		case EvTranslateDone:
			b = appendName(b, "translate-done", e.PC)
			b = append(b, `","args":{"kind":"`...)
			b = append(b, e.Str...)
			b = append(b, `",`...)
			b = appendIntField(b, "guest_insts", e.Arg1)
			b = append(b, ',')
			b = appendIntField(b, "bundles", e.Arg2)
			b = append(b, ',')
			b = appendIntField(b, "host_ns", e.Arg3)
			b = append(b, '}')
		case EvTranslateFail:
			b = appendName(b, "translate-fail", e.PC)
			b = append(b, `","args":{"cause":`...)
			b = appendJSONString(b, e.Str)
			b = append(b, '}')
		case EvMitigation:
			b = appendName(b, "mitigation", e.PC)
			b = append(b, `","args":{`...)
			b = appendIntField(b, "spec_loads", e.Arg1)
			b = append(b, ',')
			b = appendIntField(b, "risky_loads", e.Arg2)
			b = append(b, ',')
			b = appendIntField(b, "guard_edges", e.Arg3)
			b = append(b, '}')
		case EvSpecLoad:
			b = appendName(b, "spec-load", e.PC)
			b = append(b, `","args":{`...)
			b = appendHexField(b, "addr", e.Arg1)
			b = append(b, '}')
		case EvSpecSquash:
			b = appendName(b, "squash", e.PC)
			b = append(b, `","args":{`...)
			b = appendHexField(b, "addr", e.Arg1)
			b = append(b, '}')
		case EvSideExit:
			b = appendName(b, "side-exit", e.PC)
			b = append(b, `","args":{`...)
			b = appendHexField(b, "target", e.Arg1)
			b = append(b, '}')
		case EvRecovery:
			b = appendName(b, "recovery", e.PC)
			b = append(b, `","args":{`...)
			b = appendIntField(b, "seq", e.Arg1)
			b = append(b, '}')
		case EvCacheFlush:
			b = append(b, `cache-flush","args":{`...)
			b = appendIntField(b, "lines", e.Arg1)
			b = append(b, ',')
			b = appendIntField(b, "all", e.Arg2)
			b = append(b, ',')
			b = appendHexField(b, "addr", e.Arg3)
			b = append(b, '}')
		case EvTrap:
			b = append(b, "trap:"...)
			b = appendName(b, e.Str, e.PC)
			b = append(b, `","args":{`...)
			b = appendHexField(b, "addr", e.Arg1)
			b = append(b, '}')
		case EvCounter:
			// Counter tracks are keyed by name: every sample of the
			// same counter lands on one track, value in args.
			b = append(b, e.Str...)
			b = append(b, `","args":{`...)
			b = appendIntField(b, "value", e.Arg1)
			b = append(b, '}')
		default:
			b = append(b, e.Kind.String()...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// writeRaw appends one pre-rendered trace-event object to the
// document, handling the preamble and comma placement exactly like
// WriteEvents. obj must be a complete JSON object with no trailing
// separators. It is how SpanWriter interleaves host spans into the
// document the simulated-cycle tracer owns.
func (s *PerfettoSink) writeRaw(obj []byte) error {
	if err := s.preamble(); err != nil {
		return err
	}
	b := s.buf[:0]
	if s.wrote {
		b = append(b, ',', '\n')
	}
	s.wrote = true
	b = append(b, obj...)
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// Close terminates the JSON document. A trace with no events still
// closes to a valid (metadata-only) document.
func (s *PerfettoSink) Close() error {
	if err := s.preamble(); err != nil {
		return err
	}
	_, err := io.WriteString(s.w, "\n]}\n")
	return err
}
