package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// exited is what the test exit func panics with, so Fail stops where
// os.Exit would have.
type exited int

// testTool returns a Tool logging into a buffer, with an exit func that
// records the code.
func testTool() (*Tool, *bytes.Buffer) {
	var buf bytes.Buffer
	t := New("gbtest")
	t.Log = log.New(&buf, "", 0)
	t.exit = func(code int) { panic(exited(code)) }
	return t, &buf
}

// exitCode runs f and returns the code it exited with (-1: none).
func exitCode(f func()) (code int) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exited)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	f()
	return -1
}

// A guest trap exits 3, after Close has printed the translation-cache
// summary; Close is idempotent, so the summary appears exactly once.
func TestFailOnTrapPrintsSummaryThenExits3(t *testing.T) {
	tool, buf := testTool()
	tool.TCacheDir = t.TempDir()
	cfg := dbt.DefaultConfig()
	tool.Start(&cfg, "")
	fault := trap.Newf(trap.IllegalInstruction, "bad opcode")
	fault.PC = 0x1000

	if code := exitCode(func() { tool.Fail(fmt.Errorf("run: %w", fault)) }); code != ExitGuestTrap {
		t.Fatalf("Fail on a trap exited %d, want %d", code, ExitGuestTrap)
	}
	tool.Close()
	out := buf.String()
	summary := strings.Index(out, "gbtest: tcache: 0 hits, 0 misses")
	trapLine := strings.Index(out, "gbtest: guest trap: kind=illegal-instruction pc=0x1000")
	if summary < 0 || trapLine < 0 || summary > trapLine {
		t.Fatalf("want the tcache summary before the trap report, got:\n%s", out)
	}
	if n := strings.Count(out, "tcache:"); n != 1 {
		t.Fatalf("tcache summary printed %d times, want once:\n%s", n, out)
	}
}

// Spans mirrored into a Perfetto -traceout, with a detector teed onto
// the same stream: Close must end the span layer before the cycle
// tracer terminates the document, which then holds both clock domains
// — simulated-cycle events (pid 0) and host spans (pid 1).
func TestCloseOrderKeepsDualClockDocumentValid(t *testing.T) {
	dir := t.TempDir()
	tool, buf := testTool()
	tool.TraceOut = filepath.Join(dir, "trace.json")
	tool.TraceFormat = "perfetto"
	tool.Detect = true
	tool.SpansPath = filepath.Join(dir, "spans.jsonl")
	cfg := dbt.DefaultConfig()
	tool.Start(&cfg, "test")

	prog, err := riscv.Assemble("main:\n\tli s1, 0\nloop:\n\taddi s1, s1, 1\n\tli t0, 50\n\tblt s1, t0, loop\n\tli a0, 0\n\tecall\n")
	if err != nil {
		t.Fatal(err)
	}
	rs := tool.Root().Child("run")
	m, err := dbt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rs.End()
	if tool.Verdict() == nil {
		t.Fatal("detection on but no verdict")
	}
	tool.Close()
	if buf.Len() != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", buf)
	}

	raw, err := os.ReadFile(tool.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid int    `json:"pid"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace document does not parse: %v", err)
	}
	events := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			events[e.Pid]++
		}
	}
	if events[0] == 0 || events[1] == 0 {
		t.Fatalf("events per pid = %v, want both simulated-cycle (0) and host-span (1) events", events)
	}
}

func TestWidthRejectsUnsupportedWidths(t *testing.T) {
	var w Width
	for _, s := range []string{"3", "16", "x"} {
		if err := w.Set(s); err == nil {
			t.Errorf("Set(%q) accepted", s)
		}
	}
	if err := w.Set("8"); err != nil || w.String() != "8" || w.core.Width() != 8 {
		t.Errorf("Set(8) = %v, width %s, core %+v", err, w.String(), w.core)
	}
}
