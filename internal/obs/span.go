package obs

import (
	"io"
	"strconv"
	"sync"
)

// SpanSchema identifies the host-span JSONL stream format (the header
// line's "schema" field and the /v1/jobs/{id}/trace stream).
const SpanSchema = "ghostbusters/span/v1"

// Attr is one typed span attribute. Attrs are values (no pointers, no
// interfaces) so building them on a disabled path allocates nothing.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// SpanRecord is one finished host span. Start and End are absolute
// Unix nanoseconds derived from a monotonic reading, so records from
// one tracer are mutually consistent and still anchor to wall time for
// log correlation. Parent 0 means a root span.
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  int64
	End    int64
	Attrs  []Attr
}

// Attr returns the value of the named attribute on the record, if set.
func (r SpanRecord) Attr(key string) (Attr, bool) {
	for i := range r.Attrs {
		if r.Attrs[i].Key == key {
			return r.Attrs[i], true
		}
	}
	return Attr{}, false
}

// AppendJSON appends the record's span/v1 JSON object to b:
//
//	{"id":N,"parent":N,"name":"x","start_ns":N,"end_ns":N,"attrs":{...}}
//
// Shared by the span file and the /v1/jobs/{id}/trace endpoint.
func (r SpanRecord) AppendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendUint(b, r.Parent, 10)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, r.Name)
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, r.Start, 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, r.End, 10)
	if len(r.Attrs) > 0 {
		b = append(b, `,"attrs":`...)
		b = appendAttrs(b, r.Attrs)
	}
	return append(b, '}')
}

// appendAttrs renders attrs as one JSON object — the span/v1 "attrs"
// and the Perfetto "args" of a host span are the same bytes. Attrs
// render in the order they were recorded (Start attrs first): call
// sites pass them in a fixed order, so the stream stays deterministic
// without a sort.
func appendAttrs(b []byte, attrs []Attr) []byte {
	b = append(b, '{')
	for i := range attrs {
		a := &attrs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		if a.IsInt {
			b = strconv.AppendInt(b, a.Int, 10)
		} else {
			b = appendJSONString(b, a.Str)
		}
	}
	return append(b, '}')
}

// SpanHeaderJSON renders the span/v1 stream header line (without
// trailing newline): schema, clock domain, and the tracer's wall-clock
// anchor.
func SpanHeaderJSON(baseUnixNS int64) []byte {
	b := []byte(`{"schema":"` + SpanSchema + `","clock":"unix_ns","base_unix_ns":`)
	b = strconv.AppendInt(b, baseUnixNS, 10)
	return append(b, '}')
}

// appendMicros renders ns as microseconds with three decimals — the
// trace-event "ts"/"dur" unit — preserving nanosecond precision.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	return b
}

// SpanWriter writes finished host spans as the span/v1 stream: one
// header line naming the schema and clock anchor, then one record per
// line. Given a Perfetto document, it also mirrors each span into it
// as a second process: pid 1 "ghostbusters-host", complete ("X")
// events in real microseconds from the anchor, next to the simulator's
// pid 0 simulated-cycle tracks. The document's cycle tracer owns it
// and writes the terminator, so the SpanWriter must be closed first.
//
// A SpanWriter is safe for concurrent use. Spans written after Close
// are dropped: a service still ends spans while it drains, after its
// span file is closed.
type SpanWriter struct {
	mu     sync.Mutex
	w      io.Writer
	doc    *PerfettoSink
	base   int64
	buf    []byte
	opened bool
	closed bool
	err    error
}

// NewSpanWriter builds a span writer over w, mirroring into doc when
// doc is non-nil. baseUnixNS is the tracer's wall-clock anchor.
func NewSpanWriter(w io.Writer, doc *PerfettoSink, baseUnixNS int64) *SpanWriter {
	return &SpanWriter{w: w, doc: doc, base: baseUnixNS}
}

// open writes the stream header and the document's host process
// metadata, once: at the first span, or at Close so that even an empty
// stream is schema-identified.
func (s *SpanWriter) open() {
	if s.opened {
		return
	}
	s.opened = true
	_, err := s.w.Write(append(SpanHeaderJSON(s.base), '\n'))
	s.latch(err)
	if s.doc != nil {
		s.latch(s.doc.writeRaw([]byte(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"ghostbusters-host"}}`)))
		s.latch(s.doc.writeRaw([]byte(`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"host-spans"}}`)))
	}
}

func (s *SpanWriter) latch(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Write renders r. Its signature fits hspan.Tracer.Fork, which is how
// a tracer's spans reach the writer. The first write error is kept for
// Close; later spans are still written.
func (s *SpanWriter) Write(r SpanRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.open()
	b := append(r.AppendJSON(s.buf[:0]), '\n')
	_, err := s.w.Write(b)
	s.latch(err)
	if s.doc != nil {
		b = append(b[:0], `{"cat":"host","ph":"X","ts":`...)
		b = appendMicros(b, r.Start-s.base)
		b = append(b, `,"dur":`...)
		b = appendMicros(b, r.End-r.Start)
		b = append(b, `,"pid":1,"tid":0,"name":`...)
		b = appendJSONString(b, r.Name)
		if len(r.Attrs) > 0 {
			b = append(b, `,"args":`...)
			b = appendAttrs(b, r.Attrs)
		}
		b = append(b, '}')
		s.latch(s.doc.writeRaw(b))
	}
	s.buf = b
}

// Close writes the header and host metadata if no span did, drops
// every later span and returns the first write error. It closes
// neither the writer nor the document. Close is idempotent.
func (s *SpanWriter) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.open()
	s.closed = true
	return s.err
}
