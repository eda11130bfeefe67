package core_test

import (
	"reflect"
	"strings"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
)

// The v1 pattern's pinned chain must name the exact witness path the
// paper's Fig. 3 draws: secret load n2 → shift n3 → leaking load n4,
// guarded by the bounds-check branch n1.
func TestAuditV1Provenance(t *testing.T) {
	b := spectreV1Block(t)
	rep, aud := mitigateAudited(b, core.ModeGhostBusters)
	if !rep.PatternFound() {
		t.Fatal("v1 pattern not detected")
	}
	if len(aud.Pinned) != 1 {
		t.Fatalf("Pinned = %+v, want exactly one chain", aud.Pinned)
	}
	c := aud.Pinned[0]
	if c.Node != 4 || c.Source != 2 {
		t.Fatalf("pinned chain node=%d source=%d, want node=4 source=2", c.Node, c.Source)
	}
	if want := []int{2, 3, 4}; !reflect.DeepEqual(c.Path, want) {
		t.Fatalf("pinned path = %v, want %v", c.Path, want)
	}
	if c.Depth() != 2 {
		t.Fatalf("pinned depth = %d, want 2", c.Depth())
	}
	if len(c.Guards) != 1 || c.Guards[0].Node != 1 || c.Guards[0].Kind != ir.GuardBranch {
		t.Fatalf("pinned guards = %+v, want the branch n1", c.Guards)
	}
	if aud.LoadsAnalyzed != 2 || aud.SpeculativeLoads != 2 || aud.RelaxedLoads != 1 {
		t.Fatalf("load accounting = %d/%d/%d, want 2 analyzed, 2 speculative, 1 relaxed", aud.LoadsAnalyzed, aud.SpeculativeLoads, aud.RelaxedLoads)
	}
	if aud.GuardEdges != rep.GuardEdges || aud.GuardEdges == 0 {
		t.Fatalf("GuardEdges = %d (report %d), want equal and non-zero", aud.GuardEdges, rep.GuardEdges)
	}
	// The replay check: every claimed step and guard edge must be real.
	if err := aud.Verify(b, true); err != nil {
		t.Fatalf("audit does not replay against the block: %v", err)
	}
}

func TestAuditV4Provenance(t *testing.T) {
	b := spectreV4Block(t)
	_, aud := mitigateAudited(b, core.ModeGhostBusters)
	if len(aud.Pinned) != 1 {
		t.Fatalf("Pinned = %+v, want one chain", aud.Pinned)
	}
	c := aud.Pinned[0]
	if want := []int{2, 3, 4}; !reflect.DeepEqual(c.Path, want) {
		t.Fatalf("pinned path = %v, want %v", c.Path, want)
	}
	if len(c.Guards) != 1 || c.Guards[0].Node != 1 || c.Guards[0].Kind != ir.GuardStore {
		t.Fatalf("pinned guards = %+v, want the store n1 (v4's speculation source)", c.Guards)
	}
	if err := aud.Verify(b, true); err != nil {
		t.Fatal(err)
	}
}

// Poisoned chains cover every poisoned node, at the right depths: the
// source loads explain themselves at depth 0.
func TestAuditPoisonedChains(t *testing.T) {
	b := benignBlock(t)
	rep, aud := analyzeAudited(b)
	if len(aud.Pinned) != 0 {
		t.Fatalf("benign block has pinned chains: %+v", aud.Pinned)
	}
	if len(aud.Poisoned) != rep.PoisonedInsts {
		t.Fatalf("got %d poisoned chains for %d poisoned insts", len(aud.Poisoned), rep.PoisonedInsts)
	}
	if aud.RelaxedLoads != 2 {
		t.Fatalf("RelaxedLoads = %d, want 2 (both loads proven safe)", aud.RelaxedLoads)
	}
	byNode := map[int]ir.ProvenanceChain{}
	for _, c := range aud.Poisoned {
		byNode[c.Node] = c
	}
	for _, load := range []int{2, 3} {
		c, ok := byNode[load]
		if !ok || c.Source != load || c.Depth() != 0 {
			t.Fatalf("source load n%d chain wrong: %+v", load, c)
		}
		if len(c.Guards) != 1 || c.Guards[0].Node != 1 {
			t.Fatalf("source load n%d guards = %+v, want the branch", load, c.Guards)
		}
	}
	// n4 consumes both poisoned loads; the witness path goes through
	// its A operand (n2).
	if c := byNode[4]; c.Source != 2 || c.Depth() != 1 {
		t.Fatalf("dependent add chain wrong: %+v", byNode[4])
	}
	if err := aud.Verify(b, false); err != nil {
		t.Fatal(err)
	}
}

// Every mode's audit must replay against the block it mutated —
// requireGuardEdges only in ghostbusters mode, where pins materialise
// as guard edges.
func TestAuditReplaysUnderAllModes(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation} {
		for _, mk := range []func(*testing.T) *ir.Block{spectreV1Block, spectreV4Block, benignBlock} {
			b := mk(t)
			_, aud := mitigateAudited(b, mode)
			if err := aud.Verify(b, mode == core.ModeGhostBusters); err != nil {
				t.Fatalf("mode %s: %v", mode, err)
			}
		}
	}
}

// The audit must be a pure observer: audited and unaudited analysis
// agree on every report field.
func TestAuditedReportMatchesPlain(t *testing.T) {
	for _, mk := range []func(*testing.T) *ir.Block{spectreV1Block, spectreV4Block, benignBlock} {
		plain := core.Analyze(mk(t))
		audited, _ := analyzeAudited(mk(t))
		if !reflect.DeepEqual(plain, audited) {
			t.Fatalf("audited analysis diverged:\nplain   %+v\naudited %+v", plain, audited)
		}
	}
}

// Verify is a real checker, not a formality: corrupt each part of a
// chain and it must object.
func TestAuditVerifyCatchesTampering(t *testing.T) {
	fresh := func() (*ir.Block, *ir.AuditReport) {
		b := spectreV1Block(t)
		_, aud := mitigateAudited(b, core.ModeGhostBusters)
		return b, aud
	}
	tampers := []func(*ir.AuditReport){
		func(a *ir.AuditReport) { a.Pinned[0].Path = []int{2, 4} },             // skip a data-flow step
		func(a *ir.AuditReport) { a.Pinned[0].Source = 3 },                     // claim a non-load source
		func(a *ir.AuditReport) { a.Pinned[0].Guards[0].Kind = ir.GuardStore }, // misclassify the guard
		func(a *ir.AuditReport) { a.Pinned[0].Guards[0].Node = 0 },             // point at a non-guard
		func(a *ir.AuditReport) { a.Pinned[0].Guards = nil },                   // pinned without guards
		func(a *ir.AuditReport) { a.Poisoned[0].PC++ },                         // mismatched PC
	}
	for i, tamper := range tampers {
		b, aud := fresh()
		tamper(aud)
		if err := aud.Verify(b, true); err == nil {
			t.Errorf("tamper %d not caught", i)
		}
	}
	// A guard whose edge was never inserted must fail the replay in
	// ghostbusters mode.
	b, aud := fresh()
	kept := b.Edges[:0]
	for _, e := range b.Edges {
		if e.Kind != ir.EdgeGuard {
			kept = append(kept, e)
		}
	}
	b.Edges = kept
	if err := aud.Verify(b, true); err == nil {
		t.Error("missing guard edge not caught")
	}
}

// The overlay derived from an audit marks exactly the analysis's
// conclusions for Dot rendering.
func TestAuditOverlay(t *testing.T) {
	b := spectreV1Block(t)
	_, aud := mitigateAudited(b, core.ModeGhostBusters)
	ov := aud.Overlay()
	if !ov.Pinned[4] || !ov.Guards[1] {
		t.Fatalf("overlay misses pin/guard: %+v", ov)
	}
	if !ov.Poisoned[2] || !ov.Poisoned[3] {
		t.Fatalf("overlay misses poisoned nodes: %+v", ov)
	}
	dot := b.Dot(ov)
	for _, want := range []string{"[pinned]", "[guard]", "color=red, style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot overlay missing %q", want)
		}
	}
}
