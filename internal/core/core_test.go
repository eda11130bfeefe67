package core_test

import (
	"reflect"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// mitigate applies mode's mitigation — the one dispatch from a mode to
// its mitigation — to b and returns the report.
func mitigate(b *ir.Block, mode core.Mode) core.Report {
	return pipeline.Apply(mode, b, nil)
}

// mitigateAudited is mitigate with an audit report.
func mitigateAudited(b *ir.Block, mode core.Mode) (core.Report, *ir.AuditReport) {
	aud := &ir.AuditReport{}
	return pipeline.Apply(mode, b, aud), aud
}

// analyzeAudited runs the audited analysis without touching the block.
func analyzeAudited(b *ir.Block) (core.Report, *ir.AuditReport) {
	aud := &ir.AuditReport{}
	rep, _ := core.AnalyzePins(b, aud)
	return rep, aud
}

// spectreV1Block models Fig. 1: bounds check branch, then the two
// dependent loads (secret read + leaking access).
func spectreV1Block(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder(0x1000)
	n0 := bu.Emit(ir.Inst{Op: riscv.SLTU, A: ir.RegIn(10), B: ir.RegIn(11), DestArch: 5})
	bu.Emit(ir.Inst{Op: riscv.BEQ, A: ir.FromInst(n0), DestArch: -1, BranchExit: 0x2000})
	n2 := bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.RegIn(12), DestArch: 6})
	n3 := bu.Emit(ir.Inst{Op: riscv.SLLI, A: ir.FromInst(n2), Imm: 7, DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(n3), DestArch: 28})
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	return b
}

// spectreV4Block models Fig. 2: slow store then dependent double load.
func spectreV4Block(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder(0x3000)
	n0 := bu.Emit(ir.Inst{Op: riscv.MUL, A: ir.RegIn(5), B: ir.RegIn(6), DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.SD, A: ir.RegIn(8), B: ir.FromInst(n0), DestArch: -1})
	n2 := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(9), DestArch: 10})
	n3 := bu.Emit(ir.Inst{Op: riscv.ADD, A: ir.FromInst(n2), B: ir.RegIn(11), DestArch: 12})
	bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(n3), DestArch: 13})
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	return b
}

// benignBlock has speculation opportunities but no Spectre pattern: two
// independent loads after a branch, addresses derived from entry regs.
func benignBlock(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder(0x5000)
	n0 := bu.Emit(ir.Inst{Op: riscv.SLT, A: ir.RegIn(10), B: ir.RegIn(11), DestArch: 5})
	bu.Emit(ir.Inst{Op: riscv.BEQ, A: ir.FromInst(n0), DestArch: -1, BranchExit: 0x6000})
	n2 := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(12), DestArch: 6})
	n3 := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(13), Imm: 8, DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.ADD, A: ir.FromInst(n2), B: ir.FromInst(n3), DestArch: 8})
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnalyzeDetectsV1(t *testing.T) {
	b := spectreV1Block(t)
	rep := core.Analyze(b)
	if !rep.PatternFound() {
		t.Fatal("v1 pattern not detected")
	}
	if len(rep.RiskyLoads) != 1 || rep.RiskyLoads[0] != 4 {
		t.Fatalf("RiskyLoads = %v, want [4] (only the dependent load)", rep.RiskyLoads)
	}
	if len(rep.Guards) != 1 || rep.Guards[0] != 1 {
		t.Fatalf("Guards = %v, want [1] (the branch)", rep.Guards)
	}
	if rep.SpeculativeLoads != 2 {
		t.Fatalf("SpeculativeLoads = %d, want 2", rep.SpeculativeLoads)
	}
	// Analyze must not mutate.
	if !b.HasRelaxableIn(4) {
		t.Fatal("Analyze mutated the block")
	}
}

func TestAnalyzeDetectsV4(t *testing.T) {
	b := spectreV4Block(t)
	rep := core.Analyze(b)
	if !rep.PatternFound() {
		t.Fatal("v4 pattern not detected")
	}
	if len(rep.RiskyLoads) != 1 || rep.RiskyLoads[0] != 4 {
		t.Fatalf("RiskyLoads = %v, want [4]", rep.RiskyLoads)
	}
	if len(rep.Guards) != 1 || rep.Guards[0] != 1 {
		t.Fatalf("Guards = %v, want [1] (the store)", rep.Guards)
	}
}

func TestAnalyzeBenign(t *testing.T) {
	b := benignBlock(t)
	rep := core.Analyze(b)
	if rep.PatternFound() {
		t.Fatalf("benign block flagged: %+v", rep)
	}
	if rep.SpeculativeLoads != 2 {
		t.Fatalf("SpeculativeLoads = %d, want 2", rep.SpeculativeLoads)
	}
	// Both load values are poisoned, and so is the dependent add.
	if rep.PoisonedInsts != 3 {
		t.Fatalf("PoisonedInsts = %d, want 3", rep.PoisonedInsts)
	}
}

func TestApplyGhostBustersPinsOnlyRiskyLoad(t *testing.T) {
	b := spectreV1Block(t)
	rep := mitigate(b, core.ModeGhostBusters)
	if !rep.PatternFound() || rep.GuardEdges == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// The leaking load (n4) is pinned...
	if b.HasRelaxableIn(4) {
		t.Fatal("risky load still speculative after mitigation")
	}
	// ...but the secret-reading load (n2) may still speculate: that is
	// the fine-grained property that keeps the countermeasure free.
	if !b.HasRelaxableIn(2) {
		t.Fatal("fine-grained mitigation pinned a non-leaking load")
	}
	// A guard edge branch->n4 exists.
	found := false
	for _, e := range b.Edges {
		if e.Kind == ir.EdgeGuard && e.From == 1 && e.To == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("guard edge not inserted")
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyGhostBustersV4(t *testing.T) {
	b := spectreV4Block(t)
	mitigate(b, core.ModeGhostBusters)
	if b.HasRelaxableIn(4) {
		t.Fatal("risky load still speculative")
	}
	if !b.HasRelaxableIn(2) {
		t.Fatal("first load should stay speculative (it only reads, never leaks)")
	}
}

func TestApplyFencePinsWholeGuard(t *testing.T) {
	b := spectreV1Block(t)
	mitigate(b, core.ModeFence)
	// Fence at the branch: neither load may cross it any more.
	if b.HasRelaxableIn(2) || b.HasRelaxableIn(4) {
		t.Fatal("fence left speculation across the guard")
	}
}

func TestApplyFenceBenignKeepsSpeculation(t *testing.T) {
	b := benignBlock(t)
	mitigate(b, core.ModeFence)
	// No pattern, no fence: speculation preserved (paper: fence variant
	// costs nothing on the standard suite because the pattern is rare).
	if !b.HasRelaxableIn(2) || !b.HasRelaxableIn(3) {
		t.Fatal("fence mode pinned a pattern-free block")
	}
}

func TestApplyNoSpecPinsEverything(t *testing.T) {
	b := benignBlock(t)
	mitigate(b, core.ModeNoSpeculation)
	for _, e := range b.Edges {
		if e.Relaxable {
			t.Fatal("nospec left a relaxable edge")
		}
	}
}

func TestApplyUnsafeChangesNothing(t *testing.T) {
	b := spectreV1Block(t)
	before := len(b.Edges)
	rep := mitigate(b, core.ModeUnsafe)
	if !rep.PatternFound() {
		t.Fatal("unsafe mode should still report detection")
	}
	if len(b.Edges) != before || !b.HasRelaxableIn(4) {
		t.Fatal("unsafe mode modified the block")
	}
}

func TestApplyIdempotent(t *testing.T) {
	b := spectreV1Block(t)
	mitigate(b, core.ModeGhostBusters)
	edges := len(b.Edges)
	rep := mitigate(b, core.ModeGhostBusters)
	if len(b.Edges) != edges {
		t.Fatalf("second Apply added %d edges", len(b.Edges)-edges)
	}
	// After pinning, the load is no longer speculative, so the pattern
	// is gone on re-analysis.
	if rep.PatternFound() {
		t.Fatalf("pattern still found after mitigation: %+v", rep)
	}
}

// Deep chain: poison must propagate through arbitrary ALU chains.
func TestPoisonPropagatesThroughChains(t *testing.T) {
	bu := ir.NewBuilder(0)
	n0 := bu.Emit(ir.Inst{Op: riscv.ADD, A: ir.RegIn(5), B: ir.RegIn(6), DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.SD, A: ir.RegIn(8), B: ir.FromInst(n0), DestArch: -1})
	cur := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(9), DestArch: 10})
	for i := 0; i < 10; i++ {
		cur = bu.Emit(ir.Inst{Op: riscv.XORI, A: ir.FromInst(cur), Imm: int64(i), DestArch: 10})
	}
	leak := bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(cur), DestArch: 11})
	b := bu.Block()
	rep := core.Analyze(b)
	if len(rep.RiskyLoads) != 1 || rep.RiskyLoads[0] != leak {
		t.Fatalf("RiskyLoads = %v, want [%d]", rep.RiskyLoads, leak)
	}
	if rep.PoisonedInsts < 10 {
		t.Fatalf("PoisonedInsts = %d, want >= 10", rep.PoisonedInsts)
	}
}

// Store data poisoning is not a leak (only addresses index the cache).
func TestPoisonedStoreDataIsNotAPattern(t *testing.T) {
	bu := ir.NewBuilder(0)
	bu.Emit(ir.Inst{Op: riscv.SD, A: ir.RegIn(8), B: ir.RegIn(5), DestArch: -1})
	n1 := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(9), DestArch: 10})
	bu.Emit(ir.Inst{Op: riscv.SD, A: ir.RegIn(8), B: ir.FromInst(n1), Imm: 8, DestArch: -1})
	rep := core.Analyze(bu.Block())
	if rep.PatternFound() {
		t.Fatalf("store with poisoned data flagged: %+v", rep)
	}
}

func TestModeParseAndString(t *testing.T) {
	for _, m := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation, core.ModeLoadFence, core.ModeSFIClamp, core.ModeFenceMin} {
		got, err := core.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := core.ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) should fail")
	}
}

func TestParseModes(t *testing.T) {
	got, err := core.ParseModes([]string{" fence-min", "unsafe ", "ghostbusters"})
	want := []core.Mode{core.ModeFenceMin, core.ModeUnsafe, core.ModeGhostBusters}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ParseModes = %v, %v; want %v", got, err, want)
	}
	if _, err := core.ParseModes([]string{"unsafe", "fence", "unsafe"}); err == nil ||
		err.Error() != "core: mitigation mode unsafe listed twice" {
		t.Errorf("duplicate mode: err = %v", err)
	}
	if _, err := core.ParseModes([]string{"unsafe", "bogus"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// multiGuardBlock has a risky load guarded by TWO branches: the secret
// read crosses both, so the leaking load's guard set has two members.
func multiGuardBlock(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder(0x7000)
	n0 := bu.Emit(ir.Inst{Op: riscv.SLT, A: ir.RegIn(10), B: ir.RegIn(11), DestArch: 5})
	bu.Emit(ir.Inst{Op: riscv.BEQ, A: ir.FromInst(n0), DestArch: -1, BranchExit: 0x7100})
	n2 := bu.Emit(ir.Inst{Op: riscv.SLTU, A: ir.RegIn(12), B: ir.RegIn(13), DestArch: 6})
	bu.Emit(ir.Inst{Op: riscv.BNE, A: ir.FromInst(n2), DestArch: -1, BranchExit: 0x7200})
	n4 := bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.RegIn(14), DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(n4), DestArch: 8})
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	return b
}

// Regression: the ghostbusters mitigation used to range over the
// guard-set map when pinning a risky load, so with more than one guard
// the inserted guard edges landed in map-iteration order — two runs on
// identical blocks could disagree on b.Edges and on the rendered DOT.
// The pinning now walks sorted guard indices; repeated applications
// must be byte-identical.
func TestApplyGhostBustersDeterministic(t *testing.T) {
	apply := func() ([]ir.Edge, string) {
		b := multiGuardBlock(t)
		rep, aud := mitigateAudited(b, core.ModeGhostBusters)
		if len(rep.RiskyLoads) != 1 {
			t.Fatalf("RiskyLoads = %v, want one", rep.RiskyLoads)
		}
		if rep.GuardEdges < 2 {
			t.Fatalf("GuardEdges = %d, want >= 2 (the block must exercise multi-guard pinning)", rep.GuardEdges)
		}
		return b.Edges, b.Dot(aud.Overlay())
	}
	edges0, dot0 := apply()
	for i := 1; i < 8; i++ {
		edges, dot := apply()
		if !reflect.DeepEqual(edges, edges0) {
			t.Fatalf("run %d produced different edges:\n%v\nvs\n%v", i, edges, edges0)
		}
		if dot != dot0 {
			t.Fatalf("run %d produced a different DOT rendering", i)
		}
	}
}

// Two independent patterns in one block are both pinned.
func TestMultiplePatterns(t *testing.T) {
	bu := ir.NewBuilder(0)
	n0 := bu.Emit(ir.Inst{Op: riscv.SLT, A: ir.RegIn(10), B: ir.RegIn(11), DestArch: 5})
	bu.Emit(ir.Inst{Op: riscv.BEQ, A: ir.FromInst(n0), DestArch: -1, BranchExit: 0x10})
	a := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(12), DestArch: 6})
	l1 := bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(a), DestArch: 7})
	c := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(13), DestArch: 8})
	l2 := bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(c), DestArch: 9})
	b := bu.Block()
	rep := mitigate(b, core.ModeGhostBusters)
	if len(rep.RiskyLoads) != 2 || rep.RiskyLoads[0] != l1 || rep.RiskyLoads[1] != l2 {
		t.Fatalf("RiskyLoads = %v, want [%d %d]", rep.RiskyLoads, l1, l2)
	}
	if b.HasRelaxableIn(l1) || b.HasRelaxableIn(l2) {
		t.Fatal("not all risky loads pinned")
	}
	if !b.HasRelaxableIn(a) || !b.HasRelaxableIn(c) {
		t.Fatal("address-producing loads should stay speculative")
	}
}
