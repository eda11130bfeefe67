package pipeline

import (
	"reflect"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// v1Block models Fig. 1: bounds-check branch, secret read, dependent
// leaking load.
func v1Block(t *testing.T) *ir.Block {
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

// v4Block models Fig. 2: slow store, then a dependent double load that
// may bypass it.
func v4Block(t *testing.T) *ir.Block {
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

var blockMakers = map[string]func(*testing.T) *ir.Block{
	"v1": v1Block,
	"v4": v4Block,
}

func TestRegistryCoversAllModes(t *testing.T) {
	modes := Modes()
	if len(modes) < 7 {
		t.Fatalf("registry has %d modes, want the four paper modes plus >= 3 ported mitigations", len(modes))
	}
	for i := 1; i < len(modes); i++ {
		if modes[i-1] >= modes[i] {
			t.Fatalf("Modes() not in ascending mode-value order: %v", modes)
		}
	}
	for _, m := range modes {
		pl := MustFor(m)
		if pl.Mode != m {
			t.Errorf("MustFor(%v).Mode = %v", m, pl.Mode)
		}
		if pl.Name != m.String() {
			t.Errorf("pipeline name %q != mode name %q", pl.Name, m.String())
		}
		byN, err := ByName(pl.Name)
		if err != nil || byN != pl {
			t.Errorf("ByName(%q) = %v, %v", pl.Name, byN, err)
		}
		if pl.Mechanism == "" || pl.Lineage == "" {
			t.Errorf("%s: missing Mechanism/Lineage metadata", pl.Name)
		}
		// ParseMode and the registry agree: every registered name resolves.
		if parsed, err := core.ParseMode(pl.Name); err != nil || parsed != m {
			t.Errorf("core.ParseMode(%q) = %v, %v", pl.Name, parsed, err)
		}
	}
	if _, err := For(core.Mode(99)); err == nil {
		t.Error("For(unregistered mode) should fail")
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}

func TestFig4ModesAreTheSeedFour(t *testing.T) {
	want := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation}
	if got := Fig4Modes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig4Modes() = %v, want %v (the byte-identity gate covers exactly the seed modes)", got, want)
	}
}

// The Figure 4 pipelines must transform the v1/v4 blocks exactly as
// the monolithic core.Apply they replaced did. The report, the final
// edge list and the pass attribution below were recorded from that
// implementation; they pin the fig4 byte-identity guarantee at the
// block level.
func TestFig4PipelinesMatchRecordedReference(t *testing.T) {
	detected := core.Report{SpeculativeLoads: 2, PoisonedInsts: 2, Poisoned: []int{2, 3},
		RiskyLoads: []int{4}, Guards: []int{1}}
	pinned := detected
	pinned.GuardEdges = 1
	ctrl := func(from, to int, relax bool) ir.Edge {
		return ir.Edge{From: from, To: to, Kind: ir.EdgeCtrl, Relaxable: relax}
	}
	mem := func(from, to int, relax bool) ir.Edge {
		return ir.Edge{From: from, To: to, Kind: ir.EdgeMem, Relaxable: relax}
	}
	guard := ir.Edge{From: 1, To: 4, Kind: ir.EdgeGuard}
	cases := []struct {
		mode    core.Mode
		variant string
		rep     core.Report
		edges   []ir.Edge
		pass    ir.PassAttribution
	}{
		{core.ModeUnsafe, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, true), ctrl(1, 3, true), ctrl(1, 4, true)},
			ir.PassAttribution{Pass: "detect", RiskyLoads: 1}},
		{core.ModeUnsafe, "v4", detected,
			[]ir.Edge{mem(1, 2, true), mem(1, 4, true)},
			ir.PassAttribution{Pass: "detect", RiskyLoads: 1}},
		{core.ModeGhostBusters, "v1", pinned,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, true), ctrl(1, 3, true), ctrl(1, 4, false), guard},
			ir.PassAttribution{Pass: "ghostbusters", RiskyLoads: 1, GuardEdges: 1, PinnedEdges: 1}},
		{core.ModeGhostBusters, "v4", pinned,
			[]ir.Edge{mem(1, 2, true), mem(1, 4, false), guard},
			ir.PassAttribution{Pass: "ghostbusters", RiskyLoads: 1, GuardEdges: 1, PinnedEdges: 1}},
		{core.ModeFence, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, false), ctrl(1, 3, false), ctrl(1, 4, false)},
			ir.PassAttribution{Pass: "fence", RiskyLoads: 1, PinnedEdges: 3}},
		{core.ModeFence, "v4", detected,
			[]ir.Edge{mem(1, 2, false), mem(1, 4, false)},
			ir.PassAttribution{Pass: "fence", RiskyLoads: 1, PinnedEdges: 2}},
		{core.ModeNoSpeculation, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, false), ctrl(1, 3, false), ctrl(1, 4, false)},
			ir.PassAttribution{Pass: "nospec", RiskyLoads: 1, PinnedEdges: 3}},
		{core.ModeNoSpeculation, "v4", detected,
			[]ir.Edge{mem(1, 2, false), mem(1, 4, false)},
			ir.PassAttribution{Pass: "nospec", RiskyLoads: 1, PinnedEdges: 2}},
	}
	covered := map[core.Mode]int{}
	for _, tc := range cases {
		covered[tc.mode]++
		name := tc.mode.String() + "/" + tc.variant
		mk := blockMakers[tc.variant]
		orig := mk(t)

		b := mk(t)
		rep, passes := MustFor(tc.mode).Apply(b)
		if !reflect.DeepEqual(rep, tc.rep) {
			t.Errorf("%s: report\n got  %+v\n want %+v", name, rep, tc.rep)
		}
		if !reflect.DeepEqual(b.Edges, tc.edges) {
			t.Errorf("%s: edges\n got  %v\n want %v", name, b.Edges, tc.edges)
		}
		if !reflect.DeepEqual(b.Insts, orig.Insts) {
			t.Errorf("%s: instructions changed", name)
		}
		if len(passes) != 1 {
			t.Errorf("%s: %d pass reports, want 1", name, len(passes))
		}

		b = mk(t)
		repA, aud, _ := MustFor(tc.mode).ApplyAudited(b)
		if !reflect.DeepEqual(repA, tc.rep) || !reflect.DeepEqual(b.Edges, tc.edges) {
			t.Errorf("%s: audited application diverged from the plain one", name)
		}
		if want := []ir.PassAttribution{tc.pass}; !reflect.DeepEqual(aud.Passes, want) {
			t.Errorf("%s: pass attribution\n got  %+v\n want %+v", name, aud.Passes, want)
		}
	}
	for _, m := range Fig4Modes() {
		if covered[m] != len(blockMakers) {
			t.Errorf("%s: %d recorded cases, want one per block maker", m, covered[m])
		}
	}
}

// Every registered pipeline must be idempotent: a second application to
// the already-mitigated block changes neither instructions nor edges.
func TestPipelinesIdempotent(t *testing.T) {
	for _, pl := range All() {
		for variant, mk := range blockMakers {
			b := mk(t)
			pl.Apply(b)
			insts := append([]ir.Inst(nil), b.Insts...)
			edges := append([]ir.Edge(nil), b.Edges...)
			pl.Apply(b)
			if !reflect.DeepEqual(b.Insts, insts) {
				t.Errorf("%s/%s: second application changed instructions (%d -> %d)",
					pl.Name, variant, len(insts), len(b.Insts))
			}
			if !reflect.DeepEqual(b.Edges, edges) {
				t.Errorf("%s/%s: second application changed edges (%d -> %d)",
					pl.Name, variant, len(edges), len(b.Edges))
			}
			if err := b.Verify(); err != nil {
				t.Errorf("%s/%s: mitigated block fails Verify: %v", pl.Name, variant, err)
			}
		}
	}
}

func TestUnsafePipelineIsNoOp(t *testing.T) {
	b := v1Block(t)
	insts := append([]ir.Inst(nil), b.Insts...)
	edges := append([]ir.Edge(nil), b.Edges...)
	rep, _ := MustFor(core.ModeUnsafe).Apply(b)
	if !rep.PatternFound() {
		t.Error("unsafe pipeline should still report the detected pattern")
	}
	if !reflect.DeepEqual(b.Insts, insts) || !reflect.DeepEqual(b.Edges, edges) {
		t.Fatal("unsafe pipeline mutated the block")
	}
}

// loadfence pins every speculative load — the blanket strawman.
func TestLoadFencePinsEveryLoad(t *testing.T) {
	b := v1Block(t)
	_, passes := MustFor(core.ModeLoadFence).Apply(b)
	for i, in := range b.Insts {
		if in.IsLoad() && b.HasRelaxableIn(i) {
			t.Errorf("load n%d still speculative under loadfence", i)
		}
	}
	if passes[len(passes)-1].PinnedEdges == 0 {
		t.Error("loadfence reports no pinned edges on a speculating block")
	}
}

// sfi-clamp keeps the risky load speculative but rewrites its address
// to a mask-chain result: the leak is neutralised without losing the
// speculation.
func TestSFIClampMasksInsteadOfPinning(t *testing.T) {
	b := v1Block(t)
	rep, passes := MustFor(core.ModeSFIClamp).Apply(b)
	if len(rep.RiskyLoads) != 1 {
		t.Fatalf("RiskyLoads = %v", rep.RiskyLoads)
	}
	load := rep.RiskyLoads[0]
	if !b.HasRelaxableIn(load) {
		t.Error("sfi-clamp pinned the risky load; it should keep speculating")
	}
	a := b.Insts[load].A
	if a.Kind != ir.OpInst || b.Insts[a.Inst].DestArch != ir.TempDest {
		t.Fatalf("risky load address not rewritten to a TempDest mask (A = %v)", a)
	}
	var inserted int
	for _, in := range b.Insts {
		if in.DestArch == ir.TempDest {
			inserted++
		}
	}
	if last := passes[len(passes)-1]; last.InsertedInsts != inserted {
		t.Errorf("pass reports %d inserted insts, block has %d TempDest insts", last.InsertedInsts, inserted)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

// v4's guard is a store, not a branch: there is no predicate to mask
// with, so sfi-clamp must fall back to pinning rather than leave the
// bypass open.
func TestSFIClampFallsBackOnStoreGuards(t *testing.T) {
	b := v4Block(t)
	rep, _ := MustFor(core.ModeSFIClamp).Apply(b)
	if len(rep.RiskyLoads) != 1 {
		t.Fatalf("RiskyLoads = %v", rep.RiskyLoads)
	}
	if b.HasRelaxableIn(rep.RiskyLoads[0]) {
		t.Error("store-guarded risky load left speculative without a mask")
	}
	if rep.GuardEdges == 0 {
		t.Error("fallback pin inserted no guard edges")
	}
}

// fence-min pins a vertex cut of the poison flow: after the pass,
// re-analysis must find no remaining Spectre pattern.
func TestFenceMinCutsThePattern(t *testing.T) {
	for variant, mk := range blockMakers {
		b := mk(t)
		rep, _ := MustFor(core.ModeFenceMin).Apply(b)
		if !rep.PatternFound() {
			t.Fatalf("%s: pattern not detected", variant)
		}
		if after := core.Analyze(b); after.PatternFound() {
			t.Errorf("%s: pattern survives fence-min: %+v", variant, after)
		}
	}
}

// One audit report spans the pipeline: chains carry the pass that made
// them, and aud.Passes records one attribution per pass in order.
func TestAuditAttribution(t *testing.T) {
	for _, pl := range All() {
		b := v1Block(t)
		rep, aud, passes := pl.ApplyAudited(b)
		if len(aud.Passes) != len(passes) || len(passes) != len(pl.Passes) {
			t.Fatalf("%s: %d attributions, %d pass reports, %d passes",
				pl.Name, len(aud.Passes), len(passes), len(pl.Passes))
		}
		for i, pa := range aud.Passes {
			if pa.Pass != pl.Passes[i].Name {
				t.Errorf("%s: attribution %d is %q, want %q", pl.Name, i, pa.Pass, pl.Passes[i].Name)
			}
		}
		for _, c := range aud.Pinned {
			if c.Pass == "" {
				t.Errorf("%s: provenance chain without a pass stamp", pl.Name)
			}
		}
		if aud.GuardEdges != rep.GuardEdges {
			t.Errorf("%s: audit GuardEdges %d != report %d", pl.Name, aud.GuardEdges, rep.GuardEdges)
		}
		if err := aud.Verify(b, pl.Mode == core.ModeGhostBusters); err != nil {
			t.Errorf("%s: audit fails verification: %v", pl.Name, err)
		}
	}
}

// The pipeline mutates blocks only through deterministic iteration:
// repeated applications to equal blocks must agree byte-for-byte.
func TestPipelinesDeterministic(t *testing.T) {
	for _, pl := range All() {
		for variant, mk := range blockMakers {
			ref := mk(t)
			pl.Apply(ref)
			for i := 0; i < 4; i++ {
				b := mk(t)
				pl.Apply(b)
				if !reflect.DeepEqual(b.Insts, ref.Insts) || !reflect.DeepEqual(b.Edges, ref.Edges) {
					t.Fatalf("%s/%s: run %d diverged from the first application", pl.Name, variant, i)
				}
			}
		}
	}
}
