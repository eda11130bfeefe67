package hspan

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"ghostbusters/internal/obs"
)

// writeSpans returns a tracer whose spans go to an obs.SpanWriter over
// w, mirrored into doc when non-nil — how the -spans flag wires it.
func writeSpans(w io.Writer, doc *obs.PerfettoSink) (*Tracer, *obs.SpanWriter) {
	tr := New()
	sw := obs.NewSpanWriter(w, doc, tr.Base())
	return tr.Fork(sw.Write), sw
}

// TestJSONLRoundTrip exercises the core write→parse→tree path: a
// realistic job-shaped span tree goes out through the span writer and
// must come back with identical structure, times, and attrs.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr, sw := writeSpans(&buf, nil)

	root := tr.Start("job", Str("tenant", "acme"), Str("id", "j-000001"))
	adm := root.Child("admission")
	adm.End(Int("allowance", 500000))
	q := root.Child("queue-wait")
	q.End()
	att := root.Child("attempt", Int("attempt", 0))
	att.Emit("translate", att.StartNS(), att.StartNS()+1500, Int("ns", 1500))
	att.End(Str("outcome", "ok"))
	root.End(Str("state", "done"))
	if err := sw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	first, _, _ := strings.Cut(buf.String(), "\n")
	var hdr map[string]any
	if err := json.Unmarshal([]byte(first), &hdr); err != nil {
		t.Fatalf("header not JSON: %v\n%s", err, first)
	}
	if hdr["schema"] != obs.SpanSchema {
		t.Fatalf("header schema = %v, want %q", hdr["schema"], obs.SpanSchema)
	}
	if hdr["clock"] != "unix_ns" {
		t.Fatalf("header clock = %v, want unix_ns", hdr["clock"])
	}

	recs, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}

	roots := BuildTree(recs)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	r := roots[0]
	if r.Name != "job" {
		t.Fatalf("root name = %q, want job", r.Name)
	}
	if a, ok := r.Attr("tenant"); !ok || a.Str != "acme" {
		t.Fatalf("root tenant attr = %+v, %v", a, ok)
	}
	if a, ok := r.Attr("state"); !ok || a.Str != "done" {
		t.Fatalf("root state attr (End-merged) = %+v, %v", a, ok)
	}
	if len(r.Children) != 3 {
		t.Fatalf("root has %d children, want 3", len(r.Children))
	}
	// Children sort by start time: admission, queue-wait, attempt.
	names := []string{r.Children[0].Name, r.Children[1].Name, r.Children[2].Name}
	want := []string{"admission", "queue-wait", "attempt"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("children = %v, want %v", names, want)
		}
	}
	attempt := r.Children[2]
	if len(attempt.Children) != 1 || attempt.Children[0].Name != "translate" {
		t.Fatalf("attempt children = %+v, want one translate", attempt.Children)
	}
	tl := attempt.Children[0]
	if tl.End-tl.Start != 1500 {
		t.Fatalf("translate duration = %d, want 1500", tl.End-tl.Start)
	}
	for _, rec := range recs {
		if rec.Start <= 0 || rec.End < rec.Start {
			t.Fatalf("record %q has bad times [%d,%d]", rec.Name, rec.Start, rec.End)
		}
	}
}

// TestBuildTreeForest: records whose parent is missing from the set
// (truncated capture) become roots instead of vanishing.
func TestBuildTreeForest(t *testing.T) {
	recs := []Record{
		{ID: 5, Parent: 99, Name: "orphan", Start: 30, End: 40},
		{ID: 2, Parent: 1, Name: "child", Start: 20, End: 25},
		{ID: 1, Parent: 0, Name: "root", Start: 10, End: 50},
	}
	roots := BuildTree(recs)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (root + orphan)", len(roots))
	}
	if roots[0].Name != "root" || roots[1].Name != "orphan" {
		t.Fatalf("roots = %q, %q (start-time order)", roots[0].Name, roots[1].Name)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "child" {
		t.Fatalf("root children = %+v", roots[0].Children)
	}
}

// TestDisabledSpansAllocs pins the acceptance criterion: every span
// hook on a nil tracer — Start with attrs, Child, End with attrs,
// Emit, Now — is 0 allocs/op, so instrumentation can stay
// unconditionally wired through harness and serve.
func TestDisabledSpansAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("job", Str("tenant", "acme"), Int("cells", 21))
		c := sp.Child("attempt", Int("attempt", 1))
		c.Emit("translate", 0, 100, Int("ns", 100))
		c.End(Str("outcome", "ok"))
		sp.End()
		_ = tr.Now()
		_ = sp.Enabled()
		_ = tr.Fork(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v allocs/op, want 0", allocs)
	}
}

// TestFork: a forked tracer shares clock and IDs, and its observer
// sees every record emitted through the fork (but not the parent's).
func TestFork(t *testing.T) {
	var buf bytes.Buffer
	tr, sw := writeSpans(&buf, nil)
	var seen []string
	f := tr.Fork(func(r Record) { seen = append(seen, r.Name) })

	p := tr.Start("parent-only")
	p.End()
	sp := f.Start("forked")
	sp.Child("kid").End()
	sp.End()
	if err := sw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if len(seen) != 2 || seen[0] != "kid" || seen[1] != "forked" {
		t.Fatalf("observer saw %v, want [kid forked]", seen)
	}
	recs, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("writer saw %d records, want 3 (outer observer)", len(recs))
	}
	ids := map[uint64]bool{}
	for _, r := range recs {
		if ids[r.ID] {
			t.Fatalf("duplicate span ID %d across fork (sequence not shared)", r.ID)
		}
		ids[r.ID] = true
	}

	// Fork-of-fork composes observers, outermost first.
	var order []string
	f2 := f.Fork(func(r Record) { order = append(order, "inner:"+r.Name) })
	seen = seen[:0]
	f2.Start("x").End()
	if len(seen) != 1 || len(order) != 1 {
		t.Fatalf("composed observers: outer=%v inner=%v", seen, order)
	}
}

// TestPerfettoDualClock: host spans written through the span writer land
// in the same document as simulated-cycle obs events, as a second
// process (pid 1), and the whole document parses as JSON.
func TestPerfettoDualClock(t *testing.T) {
	var buf bytes.Buffer
	doc := obs.NewPerfettoSink(&buf)

	// Guest side: one simulated-cycle event batch through the obs sink.
	if err := doc.WriteEvents([]obs.Event{
		{Kind: obs.EvBlockEnter, Cycle: 100, PC: 0x40, Str: "blk", Arg1: 4, Arg2: 2},
		{Kind: obs.EvBlockExit, Cycle: 140, PC: 0x40, Arg1: 0x80},
	}); err != nil {
		t.Fatalf("obs write: %v", err)
	}

	// Host side: spans through the span writer into the same document.
	tr, sw := writeSpans(io.Discard, doc)
	sp := tr.Start("job", Str("tenant", "acme"))
	sp.Child("attempt", Int("attempt", 0)).End()
	sp.End()
	if err := sw.Close(); err != nil {
		t.Fatalf("span close: %v", err)
	}
	if err := doc.Close(); err != nil {
		t.Fatalf("doc close: %v", err)
	}

	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Cat  string  `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("document not valid JSON: %v\n%s", err, buf.String())
	}
	var simEvents, hostSpans, hostMeta int
	for _, e := range trace.TraceEvents {
		switch {
		case e.Pid == 0 && e.Cat == "sim":
			simEvents++
		case e.Pid == 1 && e.Ph == "X":
			hostSpans++
			if e.Ts < 0 {
				t.Fatalf("host span %q has negative ts %v (base not applied)", e.Name, e.Ts)
			}
		case e.Pid == 1 && e.Ph == "M":
			hostMeta++
		}
	}
	if simEvents != 2 {
		t.Fatalf("sim events = %d, want 2", simEvents)
	}
	if hostSpans != 2 {
		t.Fatalf("host spans = %d, want 2", hostSpans)
	}
	if hostMeta != 2 {
		t.Fatalf("host metadata events = %d, want 2 (process+thread name)", hostMeta)
	}
}

// TestEmptyJSONLStream: a tracer that never emits still closes to a
// valid schema-identified stream.
func TestEmptyJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	_, sw := writeSpans(&buf, nil)
	if err := sw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out := buf.String()
	recs, err := ParseJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records from empty stream", len(recs))
	}
	if !strings.Contains(out, obs.SpanSchema) {
		t.Fatalf("empty stream missing schema header: %q", out)
	}
}

// TestParseRejectsWrongSchema guards against silently reading a v2
// stream with v1 tooling.
func TestParseRejectsWrongSchema(t *testing.T) {
	in := `{"schema":"ghostbusters/span/v2","clock":"unix_ns","base_unix_ns":1}` + "\n"
	if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("want schema mismatch error, got nil")
	}
}
