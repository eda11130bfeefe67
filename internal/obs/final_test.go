package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// A truncated run leaves counters sampled mid-timeline; Close must
// re-emit every active counter at the last observed cycle, in sorted
// track order, so Perfetto renders complete tracks. The full JSONL
// output is pinned against a golden file.
func TestFinalCounterSamplesGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewJSONLSink(&buf))
	// Two counters sampled early, then the run races ahead and is
	// "interrupted" at cycle 9000 without any further samples.
	tr.Emit(Event{Kind: EvBlockEnter, Cycle: 100, PC: 0x100, Arg1: 4, Arg2: 2, Str: "block"})
	tr.Emit(Event{Kind: EvCounter, Cycle: 120, Arg1: 97, Str: CtrCacheHitRate})
	tr.Emit(Event{Kind: EvCounter, Cycle: 150, Arg1: 3, Str: CtrMCBOccupancy})
	tr.Emit(Event{Kind: EvBlockExit, Cycle: 9000, PC: 0x100, Arg1: 0x200})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "final_counters.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("final-counter JSONL drifted from golden:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// A counter already sampled at the final cycle must not be duplicated,
// and a trace with no counters gets no synthetic events at all.
func TestFinalCounterSamplesNoDuplicates(t *testing.T) {
	var buf bytes.Buffer
	tr := New(LevelSpec, NewJSONLSink(&buf))
	tr.Emit(Event{Kind: EvCounter, Cycle: 50, Arg1: 1, Str: CtrPinnedLoads})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("counter at the final cycle duplicated: %d lines\n%s", n, buf.Bytes())
	}

	buf.Reset()
	tr = New(LevelSpec, NewJSONLSink(&buf))
	tr.Emit(Event{Kind: EvBlockEnter, Cycle: 10, PC: 0x100})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("counter-free trace grew synthetic events: %d lines\n%s", n, buf.Bytes())
	}
}
