package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// appendJSONString copies static-table strings verbatim and escapes
// quotes, backslashes, control bytes and invalid UTF-8. This golden
// table locks the bytes in, and checks every rendering parses back to
// the original via encoding/json (invalid UTF-8 as U+FFFD), the
// property the JSONL and Perfetto sinks rely on.
func TestAppendJSONStringGolden(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		// Fast path: plain printable ASCII copies verbatim.
		{"", `""`},
		{"block", `"block"`},
		{"cache-hit-rate", `"cache-hit-rate"`},
		{"out-of-range-access", `"out-of-range-access"`},
		// Slow path: quotes.
		{`bad "op"`, `"bad \"op\""`},
		{`"`, `"\""`},
		// Slow path: backslashes.
		{`C:\trace\out`, `"C:\\trace\\out"`},
		{`a\"b`, `"a\\\"b"`},
		// Slow path: control characters with JSON shorthand escapes.
		{"line1\nline2", `"line1\nline2"`},
		{"tab\tsep", `"tab\tsep"`},
		{"cr\rlf", `"cr\rlf"`},
		// Slow path: printable non-ASCII stays literal UTF-8 (valid
		// JSON, and what Perfetto renders as-is).
		{"café-π", `"café-π"`},
		{"日本語カウンタ", `"日本語カウンタ"`},
		{"naïve → fancy", `"naïve → fancy"`},
		// Control bytes without a shorthand, DEL and invalid UTF-8:
		// free text such as a tenant name can hold any of them.
		{"a\x01b", `"a\u0001b"`},
		{"\a", `"\u0007"`},
		{"\x1f", `"\u001f"`},
		{"\x7f", "\"\x7f\""},
		{"\xff", `"\ufffd"`},
		{"ok\xc3", `"ok\ufffd"`},
	}
	for _, c := range cases {
		got := string(appendJSONString(nil, c.in))
		if got != c.want {
			t.Errorf("appendJSONString(%q) = %s, want %s", c.in, got, c.want)
		}
		var back string
		if err := json.Unmarshal([]byte(got), &back); err != nil {
			t.Errorf("appendJSONString(%q) produced invalid JSON %s: %v", c.in, got, err)
		} else if back != strings.ToValidUTF8(c.in, "\uFFFD") {
			t.Errorf("appendJSONString(%q) round-trips to %q", c.in, back)
		}
	}
	// The helper appends: an existing prefix must survive untouched.
	if got := string(appendJSONString([]byte(`{"s":`), `x"y`)); got != `{"s":"x\"y"` {
		t.Errorf("append prefix mangled: %s", got)
	}
}

// Every one-byte string renders as valid JSON.
func TestAppendJSONStringEveryByte(t *testing.T) {
	for c := 0; c < 256; c++ {
		if got := appendJSONString(nil, string([]byte{byte(c)})); !json.Valid(got) {
			t.Errorf("byte %#02x renders as invalid JSON %s", c, got)
		}
	}
}

// hostileStrings is free text no static table would produce — the
// sinks must still emit parseable JSON for it.
var hostileStrings = []string{
	`cause with "quotes"`,
	`back\slash`,
	"non-ascii: héllo, 世界",
	"newline\nin cause",
}

func TestJSONLSinkEscapesHostileStrings(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelBlock, NewJSONLSink(&buf))
	for _, s := range hostileStrings {
		tr.Emit(Event{Kind: EvTranslateFail, Cycle: 1, PC: 0x100, Str: s})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(hostileStrings) {
		t.Fatalf("got %d lines, want %d", len(lines), len(hostileStrings))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, line)
		}
		if obj["s"] != hostileStrings[i] {
			t.Fatalf("line %d: s = %q, want %q", i, obj["s"], hostileStrings[i])
		}
	}
}

func TestPerfettoSinkEscapesHostileStrings(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelBlock, NewPerfettoSink(&buf))
	for _, s := range hostileStrings {
		tr.Emit(Event{Kind: EvTranslateFail, Cycle: 1, PC: 0x100, Str: s})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Cause string `json:"cause"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto doc with hostile causes invalid: %v\n%s", err, buf.String())
	}
	var causes []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			causes = append(causes, ev.Args.Cause)
		}
	}
	if len(causes) != len(hostileStrings) {
		t.Fatalf("got %d translate-fail events, want %d", len(causes), len(hostileStrings))
	}
	for i, c := range causes {
		if c != hostileStrings[i] {
			t.Fatalf("cause %d = %q, want %q", i, c, hostileStrings[i])
		}
	}
}

// Counter events must land on "C"-phase counter tracks with the value
// in args, on the dedicated counters thread, alongside a thread_name
// metadata record — that is what makes ui.perfetto.dev draw them as
// line graphs over the same simulated-cycle axis as the spans.
func TestPerfettoCounterTracks(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewPerfettoSink(&buf))
	samples := []struct {
		name string
		v    uint64
	}{
		{CtrCacheHitRate, 97},
		{CtrMCBOccupancy, 2},
		{CtrPinnedLoads, 1},
		{CtrLeakedBytes, 5},
	}
	for i, s := range samples {
		tr.Emit(Event{Kind: EvCounter, Cycle: uint64(10 + i), Arg1: s.v, Str: s.name})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
			Args struct {
				Value *uint64 `json:"value"`
				Name  string  `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("counter trace invalid: %v\n%s", err, buf.String())
	}
	got := map[string]uint64{}
	sawThreadName := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Args.Name == "counters" {
			sawThreadName = true
		}
		if ev.Ph != "C" {
			continue
		}
		if ev.Args.Value == nil {
			t.Fatalf("counter %q has no args.value", ev.Name)
		}
		got[ev.Name] = *ev.Args.Value
	}
	for _, s := range samples {
		if got[s.name] != s.v {
			t.Fatalf("counter %q = %d, want %d (got map %v)", s.name, got[s.name], s.v, got)
		}
	}
	if !sawThreadName {
		t.Fatal("no thread_name metadata for the counters track")
	}
}

func TestTextSinkRendersCounters(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewTextSink(&buf))
	tr.Emit(Event{Kind: EvCounter, Cycle: 42, Arg1: 97, Str: CtrCacheHitRate})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "counter cache-hit-rate=97") {
		t.Fatalf("text counter line missing:\n%s", buf.String())
	}
}
