package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenBase is the fixed wall-clock anchor of the golden span stream.
const goldenBase = int64(1_700_000_000_000_000_000)

// goldenRecords are fixed span records whose names and attrs carry
// quotes, backslashes, control bytes and non-ASCII text, so the golden
// files pin the escaper as well as the layout.
var goldenRecords = []SpanRecord{
	{ID: 2, Parent: 1, Name: "assemble", Start: goldenBase + 4000, End: goldenBase + 41086,
		Attrs: []Attr{{Key: "file", Str: "tiny.s"}}},
	{ID: 3, Parent: 1, Name: "load", Start: goldenBase + 385000, End: goldenBase + 389737},
	{ID: 4, Parent: 1, Name: "run \"quoted\" C:\\trace\ttab\nπ café 世界", Start: goldenBase + 390001, End: goldenBase + 1234567,
		Attrs: []Attr{
			{Key: `say "hi"`, Str: `C:\trace\out`},
			{Key: "ctl", Str: "tab\there\nnewline\rcr"},
			{Key: "utf8", Str: "naïve → 日本語"},
			{Key: "cycles", Int: 542, IsInt: true},
			{Key: "neg", Int: -7, IsInt: true},
		}},
	{ID: 1, Name: "gbrun", Start: goldenBase, End: goldenBase + 2000000,
		Attrs: []Attr{{Key: "mode", Str: "ghostbusters"}, {Key: "ns", IsInt: true}}},
}

// TestSpanGolden: the span/v1 stream and the pid-1 Perfetto events
// written between two simulated-cycle batches match goldens rendered
// by the former hspan JSONL and Perfetto sinks, byte for byte.
func TestSpanGolden(t *testing.T) {
	var js, pf bytes.Buffer
	doc := NewPerfettoSink(&pf)
	w := NewSpanWriter(&js, doc, goldenBase)
	if err := doc.WriteEvents([]Event{{Kind: EvBlockEnter, Cycle: 100, PC: 0x40, Str: "block", Arg1: 4, Arg2: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRecords {
		w.Write(r)
	}
	if err := doc.WriteEvents([]Event{{Kind: EvBlockExit, Cycle: 140, PC: 0x40, Arg1: 0x80}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := doc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		path string
		got  []byte
	}{
		{"testdata/spans.golden.jsonl", js.Bytes()},
		{"testdata/spans.golden.perfetto.json", pf.Bytes()},
	} {
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", g.path, g.got, want)
		}
	}
}

// TestSpanWriterDropsAfterClose: a span that ends after Close (a
// service ending spans while it drains) is neither written nor able to
// latch an error from the file closed behind the writer.
func TestSpanWriterDropsAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSpanWriter(f, nil, goldenBase)
	w.Write(goldenRecords[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w.Write(goldenRecords[1])
	if err := w.Close(); err != nil {
		t.Fatalf("write after Close latched %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(SpanHeaderJSON(goldenBase)) + "\n" + string(goldenRecords[0].AppendJSON(nil)) + "\n"
	if string(raw) != want {
		t.Fatalf("file = %q, want %q", raw, want)
	}
}

// TestSpanWriterConcurrent: writers on many goroutines produce one
// header and whole lines, in one document that still parses.
func TestSpanWriterConcurrent(t *testing.T) {
	var js, pf bytes.Buffer
	doc := NewPerfettoSink(&pf)
	w := NewSpanWriter(&js, doc, goldenBase)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range goldenRecords {
				w.Write(r)
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := doc.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(js.String(), "\n"), "\n")
	if want := 1 + 8*len(goldenRecords); len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("line %d is not JSON: %s", i+1, l)
		}
	}
	var d struct {
		TraceEvents []struct {
			Pid int    `json:"pid"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pf.Bytes(), &d); err != nil {
		t.Fatalf("document does not parse: %v", err)
	}
	host := 0
	for _, e := range d.TraceEvents {
		if e.Pid == 1 && e.Ph == "X" {
			host++
		}
	}
	if host != 8*len(goldenRecords) {
		t.Fatalf("host spans = %d, want %d", host, 8*len(goldenRecords))
	}
}

// TestAppendMicros checks the µs rendering keeps ns precision.
func TestAppendMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{1234567, "1234.567"}, {-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := string(appendMicros(nil, c.ns)); got != c.want {
			t.Errorf("appendMicros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}
