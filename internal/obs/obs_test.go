package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// The disabled-tracer hot path — exactly the guard+emit pattern the
// machine and core compile in — must be free: no allocations, ever.
// This is the gate behind "zero-cost when disabled".
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer // nil: tracing off
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.BlockOn() {
			tr.Emit(Event{Kind: EvBlockEnter, Cycle: 1, PC: 0x100})
		}
		if tr.SpecOn() {
			tr.Emit(Event{Kind: EvSpecLoad, Cycle: 2, PC: 0x104, Arg1: 0x2000})
		}
		if tr.SpecOn() { // counter emissions use the same gate
			tr.Emit(Event{Kind: EvCounter, Cycle: 3, Arg1: 4, Str: CtrMCBOccupancy})
		}
		tr.Emit(Event{Kind: EvTrap}) // even an unguarded emit is free
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f objects/op, want 0", allocs)
	}
}

// An enabled ring tracer (no sink) must also run allocation-free in
// steady state: the buffer is preallocated and wraps in place.
func TestEnabledRingZeroAllocs(t *testing.T) {
	tr := NewSized(LevelSpec, nil, 64)
	for i := 0; i < 128; i++ { // warm past the first wrap
		tr.Emit(Event{Kind: EvSpecLoad, Cycle: uint64(i)})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: EvSpecLoad, Cycle: 1, PC: 0x100, Arg1: 0x2000})
	})
	if allocs != 0 {
		t.Fatalf("enabled ring emit allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRingRetainsLastEvents(t *testing.T) {
	tr := NewSized(LevelBlock, nil, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvBlockEnter, Cycle: uint64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Fatalf("ring event %d has cycle %d, want %d (oldest-first order)", i, e.Cycle, want)
		}
	}
}

func TestLevelGates(t *testing.T) {
	if (*Tracer)(nil).BlockOn() || (*Tracer)(nil).SpecOn() {
		t.Fatal("nil tracer reports enabled")
	}
	if New(LevelOff, nil).BlockOn() {
		t.Fatal("LevelOff reports block events enabled")
	}
	b := New(LevelBlock, nil)
	if !b.BlockOn() || b.SpecOn() {
		t.Fatal("LevelBlock gates wrong")
	}
	s := New(LevelSpec, nil)
	if !s.BlockOn() || !s.SpecOn() {
		t.Fatal("LevelSpec gates wrong")
	}
	off := New(LevelOff, nil)
	off.Emit(Event{Kind: EvTrap})
	if len(off.Events()) != 0 {
		t.Fatal("LevelOff recorded an event")
	}
}

// sampleEvents is one of everything, cycles strictly increasing.
func sampleEvents() []Event {
	return []Event{
		{Kind: EvTranslateStart, Cycle: 10, PC: 0x100, Arg1: 0},
		{Kind: EvMitigation, Cycle: 10, PC: 0x100, Arg1: 3, Arg2: 1, Arg3: 2},
		{Kind: EvTranslateDone, Cycle: 11, PC: 0x100, Arg1: 7, Arg2: 5, Arg3: 1234, Str: "block"},
		{Kind: EvBlockEnter, Cycle: 12, PC: 0x100, Arg1: 7, Arg2: 5, Str: "block"},
		{Kind: EvSpecLoad, Cycle: 13, PC: 0x104, Arg1: 0x20000},
		{Kind: EvSpecSquash, Cycle: 13, PC: 0x104, Arg1: 0x20000},
		{Kind: EvSideExit, Cycle: 15, PC: 0x110, Arg1: 0x200},
		{Kind: EvBlockExit, Cycle: 15, PC: 0x100, Arg1: 0x200, Arg2: 1},
		{Kind: EvInterpEnter, Cycle: 16, PC: 0x200},
		{Kind: EvInterpBranch, Cycle: 18, PC: 0x204, Arg1: 0x100, Str: "blt"},
		{Kind: EvRecovery, Cycle: 20, PC: 0x108, Arg1: 0},
		{Kind: EvCacheFlush, Cycle: 22, Arg1: 16, Arg2: 1},
		{Kind: EvTranslateFail, Cycle: 25, PC: 0x300, Str: `bad "op"`},
		{Kind: EvTrap, Cycle: 31, PC: 0x118, Arg1: 0x9000, Str: "out-of-range-access"},
		{Kind: EvCounter, Cycle: 32, Arg1: 97, Str: CtrCacheHitRate},
		{Kind: EvCounter, Cycle: 33, Arg1: 2, Str: CtrMCBOccupancy},
	}
}

func TestTextSinkKeepsLegacyLineFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewTextSink(&buf))
	for _, e := range sampleEvents() {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The two line shapes the old gbrun -trace logger printed must
	// survive verbatim so existing eyeballs and scripts keep working.
	if !strings.Contains(out, "] exec block @0x100 (7 insts, 5 bundles)") {
		t.Errorf("legacy dispatch line missing:\n%s", out)
	}
	if !strings.Contains(out, "] interp blt @0x204 -> 0x100") {
		t.Errorf("legacy interp line missing:\n%s", out)
	}
	// +1: Close re-samples cache-hit-rate (last seen at cycle 32) at the
	// final cycle 33; mcb-occupancy is already at 33 and not duplicated.
	if n := strings.Count(out, "\n"); n != len(sampleEvents())+1 {
		t.Errorf("got %d lines, want %d", n, len(sampleEvents())+1)
	}
}

func TestJSONLSinkEmitsValidJSONPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewJSONLSink(&buf))
	for _, e := range sampleEvents() {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// +1 for the final cache-hit-rate sample Close emits at cycle 33.
	if len(lines) != len(sampleEvents())+1 {
		t.Fatalf("got %d lines, want %d", len(lines), len(sampleEvents())+1)
	}
	lines = lines[:len(sampleEvents())]
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"kind", "cycle", "pc"} {
			if _, ok := obj[key]; !ok {
				t.Fatalf("line %d missing %q: %s", i, key, line)
			}
		}
		// Zero-valued args are omitted, non-zero ones round-trip.
		want := sampleEvents()[i]
		for key, v := range map[string]uint64{"a1": want.Arg1, "a2": want.Arg2, "a3": want.Arg3} {
			got, ok := obj[key]
			if ok != (v != 0) {
				t.Fatalf("line %d %s present=%v want non-zero=%v: %s", i, key, ok, v != 0, line)
			}
			if ok && uint64(got.(float64)) != v {
				t.Fatalf("line %d %s = %v, want %d", i, key, got, v)
			}
		}
	}
	// The escaped detail string must round-trip.
	var fail map[string]any
	if err := json.Unmarshal([]byte(lines[12]), &fail); err != nil {
		t.Fatal(err)
	}
	if fail["s"] != `bad "op"` {
		t.Fatalf("detail string mangled: %v", fail["s"])
	}
}

// chromeTrace is the trace-event document shape Perfetto loads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		TS   float64         `json:"ts"`
		PID  int             `json:"pid"`
		TID  int             `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

// The golden Perfetto test: the sink's output must parse as a valid
// Chrome trace-event document, carry monotone simulated-cycle
// timestamps, balance its B/E spans, and attribute events to guest PCs.
func TestPerfettoSinkProducesValidTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewSized(LevelSpec, NewPerfettoSink(&buf), 4) // tiny buffer: exercise batching
	for _, e := range sampleEvents() {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) < len(sampleEvents()) {
		t.Fatalf("only %d trace events for %d emitted", len(doc.TraceEvents), len(sampleEvents()))
	}
	lastTS := -1.0
	depth := 0
	sawPC := false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue // metadata carries no timestamp
		case "B":
			depth++
		case "E":
			depth--
		case "i", "C":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.TS < lastTS {
			t.Fatalf("timestamps not monotone: %v after %v", ev.TS, lastTS)
		}
		lastTS = ev.TS
		if strings.Contains(ev.Name, "@0x") {
			sawPC = true
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced B/E spans: depth %d at end of trace", depth)
	}
	if !sawPC {
		t.Fatal("no event attributed to a guest PC")
	}
}

// An empty trace must still close to a valid document (a run that traps
// before the first event, or a level that filters everything).
func TestPerfettoSinkEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewPerfettoSink(&buf))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty perfetto trace invalid: %v\n%s", err, buf.String())
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	var a, b bytes.Buffer
	tr := New(LevelSpec, NewMultiSink(NewTextSink(&a), NewJSONLSink(&b)))
	tr.Emit(Event{Kind: EvBlockEnter, Cycle: 5, PC: 0x40, Arg1: 1, Arg2: 1, Str: "block"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || b.Len() == 0 {
		t.Fatalf("multi-sink skipped a sink: text=%d jsonl=%d bytes", a.Len(), b.Len())
	}
}

func TestSinkFor(t *testing.T) {
	for _, f := range []string{"text", "jsonl", "perfetto"} {
		if _, err := SinkFor(f, io.Discard); err != nil {
			t.Errorf("SinkFor(%q): %v", f, err)
		}
	}
	if _, err := SinkFor("xml", io.Discard); err == nil {
		t.Error("SinkFor accepted unknown format")
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := Snapshot{"b.x": 1, "a.y": 2}
	if names := s.Names(); !(len(names) == 2 && names[0] == "a.y" && names[1] == "b.x") {
		t.Fatalf("Names not sorted: %v", names)
	}
	if !s.Equal(Snapshot{"a.y": 2, "b.x": 1}) {
		t.Fatal("Equal false for identical snapshots")
	}
	if s.Equal(Snapshot{"a.y": 2, "b.x": 3}) || s.Equal(Snapshot{"a.y": 2}) {
		t.Fatal("Equal true for differing snapshots")
	}
	// JSON round-trip: the -stats -json / perf `metrics` contract.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(back) {
		t.Fatalf("snapshot JSON round-trip lost data: %v vs %v", s, back)
	}
}

// A sink error must not kill tracing, only be latched for Flush/Close.
type failingSink struct{ n int }

func (f *failingSink) WriteEvents(evs []Event) error { f.n += len(evs); return fmt.Errorf("disk full") }
func (f *failingSink) Close() error                  { return nil }

func TestSinkErrorIsLatchedNotFatal(t *testing.T) {
	sink := &failingSink{}
	tr := NewSized(LevelBlock, sink, 2)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvBlockEnter, Cycle: uint64(i)})
	}
	if err := tr.Close(); err == nil {
		t.Fatal("sink error not surfaced by Close")
	}
	if sink.n == 0 {
		t.Fatal("sink never saw a batch")
	}
}
