package harness

import (
	"bytes"
	"context"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/polybench"
)

// TestSpansDoNotPerturbResults pins the acceptance criterion that span
// tracing is observation-only: the same small matrix run with and
// without a span tracer renders byte-identical tables, and the span
// stream itself reconstructs into one cell tree per matrix cell with
// the translate/execute split present for kernel cells.
func TestSpansDoNotPerturbResults(t *testing.T) {
	atax, err := polybench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	benches := []Bench{KernelBench(atax, 6), SpectreBench(attack.V1, attack.Params{Secret: []byte{0x5A, 0xC3}})}
	modes := Fig4Modes

	run := func(span hspan.Span) string {
		r := &Runner{Workers: 4, Artifacts: NewArtifacts(), Span: span}
		rows, err := r.RunMatrix(context.Background(), dbt.DefaultConfig(), benches, modes)
		if err != nil {
			t.Fatalf("matrix: %v", err)
		}
		SortRows(rows)
		return FormatRows(rows, modes)
	}

	plain := run(hspan.Span{})

	var buf bytes.Buffer
	tr := hspan.New(hspan.NewJSONLSink(&buf))
	root := tr.Start("matrix")
	sweep := root.Child("sweep")
	traced := run(sweep)
	sweep.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("span close: %v", err)
	}

	if plain != traced {
		t.Fatalf("table changed under span tracing:\nplain:\n%s\ntraced:\n%s", plain, traced)
	}

	recs, err := hspan.ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("parse spans: %v", err)
	}
	roots := hspan.BuildTree(recs)
	if len(roots) != 1 {
		t.Fatalf("got %d root spans, want 1", len(roots))
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "sweep" {
		t.Fatalf("root children = %+v, want one sweep", roots[0].Children)
	}
	cells := roots[0].Children[0].Children
	if want := len(benches) * len(modes); len(cells) != want {
		t.Fatalf("got %d cell spans, want %d", len(cells), want)
	}
	kernelSplits := 0
	for _, c := range cells {
		if c.Name != "cell" {
			t.Fatalf("unexpected child %q under sweep", c.Name)
		}
		bench, ok := c.Attr("bench")
		if !ok {
			t.Fatalf("cell missing bench attr: %+v", c.Record)
		}
		if len(c.Children) == 0 {
			t.Fatalf("cell %s has no attempt span", bench.Str)
		}
		for _, a := range c.Children {
			if a.Name != "attempt" {
				continue
			}
			for _, ph := range a.Children {
				if ph.Name == "translate" {
					kernelSplits++
				}
			}
		}
	}
	// Every kernel cell (machine-backed) carries the split; the Spectre
	// PoC bench has no machine access and legitimately has none.
	if kernelSplits != len(modes) {
		t.Fatalf("translate splits on %d cells, want %d (one per kernel cell)", kernelSplits, len(modes))
	}
}
