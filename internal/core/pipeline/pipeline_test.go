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

// TestRegistryCoversAllModes checks the mode table: seven modes in
// ascending order, each with a name that round-trips through
// core.ParseMode and a mitigation function.
func TestRegistryCoversAllModes(t *testing.T) {
	modes := core.Modes()
	if len(modes) != 7 {
		t.Fatalf("mode table has %d modes, want the four paper modes plus the three ported mitigations", len(modes))
	}
	if len(mitigations) != len(modes) {
		t.Fatalf("%d mitigation functions for %d modes", len(mitigations), len(modes))
	}
	for i, m := range modes {
		if i > 0 && modes[i-1] >= m {
			t.Fatalf("Modes() not in ascending mode-value order: %v", modes)
		}
		if !m.Valid() {
			t.Errorf("%v: not Valid", m)
		}
		if mitigations[m] == nil {
			t.Errorf("%v: no mitigation function", m)
		}
		if parsed, err := core.ParseMode(m.String()); err != nil || parsed != m {
			t.Errorf("core.ParseMode(%q) = %v, %v", m.String(), parsed, err)
		}
	}
	if m := core.Mode(len(modes)); m.Valid() || m.String() != "mode(7)" {
		t.Errorf("mode past the table: Valid %v, String %q", m.Valid(), m.String())
	}
	want := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation}
	if got := core.Fig4Modes(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig4Modes() = %v, want %v", got, want)
	}
	_, err := core.ParseMode("bogus")
	const wantErr = `core: unknown mitigation mode "bogus" (want unsafe|ghostbusters|fence|nospec|loadfence|sfi-clamp|fence-min)`
	if err == nil || err.Error() != wantErr {
		t.Errorf("ParseMode(bogus) error = %v, want %s", err, wantErr)
	}
}

func TestFig4ModesAreTheSeedFour(t *testing.T) {
	want := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation}
	if got := core.Fig4Modes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig4Modes() = %v, want %v (the byte-identity gate covers exactly the seed modes)", got, want)
	}
}

// Every mode must transform the v1/v4 blocks exactly as recorded. The
// Figure 4 rows were recorded from the monolithic core.Apply the
// mitigations replaced, the other three from the multi-pass pipeline
// registry; together they pin the byte-identity guarantee at the block
// level. A nil insts means the instructions are unchanged.
func TestFig4PipelinesMatchRecordedReference(t *testing.T) {
	detected := core.Report{SpeculativeLoads: 2, PoisonedInsts: 2, Poisoned: []int{2, 3},
		RiskyLoads: []int{4}, Guards: []int{1}}
	pinned := detected
	pinned.GuardEdges = 1
	clamped := detected
	clamped.RiskyLoads = []int{8}
	ctrl := func(from, to int, relax bool) ir.Edge {
		return ir.Edge{From: from, To: to, Kind: ir.EdgeCtrl, Relaxable: relax}
	}
	mem := func(from, to int, relax bool) ir.Edge {
		return ir.Edge{From: from, To: to, Kind: ir.EdgeMem, Relaxable: relax}
	}
	guard := ir.Edge{From: 1, To: 4, Kind: ir.EdgeGuard}

	// sfi-clamp on v1 inserts the BEQ guard's mask chain before the
	// leaking load and points the load's address at the chain's AND.
	tmp := func(op riscv.Op, a, b ir.Operand) ir.Inst {
		return ir.Inst{Op: op, A: a, B: b, DestArch: ir.TempDest}
	}
	v1 := v1Block(t).Insts
	leak := v1[4]
	leak.A = ir.FromInst(7)
	clampedV1 := []ir.Inst{v1[0], v1[1], v1[2], v1[3],
		tmp(riscv.XOR, ir.FromInst(0), ir.Operand{}),
		tmp(riscv.SLTU, ir.Operand{}, ir.FromInst(4)),
		tmp(riscv.SUB, ir.Operand{}, ir.FromInst(5)),
		tmp(riscv.AND, ir.FromInst(3), ir.FromInst(6)),
		leak}

	cases := []struct {
		mode    core.Mode
		variant string
		rep     core.Report
		edges   []ir.Edge
		insts   []ir.Inst
	}{
		{core.ModeUnsafe, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, true), ctrl(1, 3, true), ctrl(1, 4, true)}, nil},
		{core.ModeUnsafe, "v4", detected,
			[]ir.Edge{mem(1, 2, true), mem(1, 4, true)}, nil},
		{core.ModeGhostBusters, "v1", pinned,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, true), ctrl(1, 3, true), ctrl(1, 4, false), guard}, nil},
		{core.ModeGhostBusters, "v4", pinned,
			[]ir.Edge{mem(1, 2, true), mem(1, 4, false), guard}, nil},
		{core.ModeFence, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, false), ctrl(1, 3, false), ctrl(1, 4, false)}, nil},
		{core.ModeFence, "v4", detected,
			[]ir.Edge{mem(1, 2, false), mem(1, 4, false)}, nil},
		{core.ModeNoSpeculation, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, false), ctrl(1, 3, false), ctrl(1, 4, false)}, nil},
		{core.ModeNoSpeculation, "v4", detected,
			[]ir.Edge{mem(1, 2, false), mem(1, 4, false)}, nil},
		{core.ModeLoadFence, "v1", detected,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, false), ctrl(1, 3, true), ctrl(1, 4, false)}, nil},
		{core.ModeLoadFence, "v4", detected,
			[]ir.Edge{mem(1, 2, false), mem(1, 4, false)}, nil},
		{core.ModeSFIClamp, "v1", clamped,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, true), ctrl(1, 3, true), ctrl(1, 8, true)}, clampedV1},
		{core.ModeSFIClamp, "v4", pinned,
			[]ir.Edge{mem(1, 2, true), mem(1, 4, false), guard}, nil},
		{core.ModeFenceMin, "v1", pinned,
			[]ir.Edge{ctrl(0, 1, false), ctrl(1, 2, true), ctrl(1, 3, true), ctrl(1, 4, false), guard}, nil},
		{core.ModeFenceMin, "v4", pinned,
			[]ir.Edge{mem(1, 2, true), mem(1, 4, false), guard}, nil},
	}
	covered := map[core.Mode]int{}
	for _, tc := range cases {
		covered[tc.mode]++
		name := tc.mode.String() + "/" + tc.variant
		mk := blockMakers[tc.variant]
		insts := tc.insts
		if insts == nil {
			insts = mk(t).Insts
		}

		b := mk(t)
		rep := Apply(nil, tc.mode, b, nil)
		if !reflect.DeepEqual(rep, tc.rep) {
			t.Errorf("%s: report\n got  %+v\n want %+v", name, rep, tc.rep)
		}
		if !reflect.DeepEqual(b.Edges, tc.edges) {
			t.Errorf("%s: edges\n got  %v\n want %v", name, b.Edges, tc.edges)
		}
		if !reflect.DeepEqual(b.Insts, insts) {
			t.Errorf("%s: instructions\n got  %+v\n want %+v", name, b.Insts, insts)
		}

		b = mk(t)
		aud := &ir.AuditReport{}
		repA := Apply(nil, tc.mode, b, aud)
		if !reflect.DeepEqual(repA, tc.rep) || !reflect.DeepEqual(b.Edges, tc.edges) || !reflect.DeepEqual(b.Insts, insts) {
			t.Errorf("%s: audited application diverged from the plain one", name)
		}
	}
	for _, m := range core.Modes() {
		if covered[m] != len(blockMakers) {
			t.Errorf("%s: %d recorded cases, want one per block maker", m, covered[m])
		}
	}
}

// Every mode must be idempotent: a second application to the
// already-mitigated block changes neither instructions nor edges.
func TestPipelinesIdempotent(t *testing.T) {
	for _, m := range core.Modes() {
		for variant, mk := range blockMakers {
			b := mk(t)
			Apply(nil, m, b, nil)
			insts := append([]ir.Inst(nil), b.Insts...)
			edges := append([]ir.Edge(nil), b.Edges...)
			Apply(nil, m, b, nil)
			if !reflect.DeepEqual(b.Insts, insts) {
				t.Errorf("%s/%s: second application changed instructions (%d -> %d)",
					m, variant, len(insts), len(b.Insts))
			}
			if !reflect.DeepEqual(b.Edges, edges) {
				t.Errorf("%s/%s: second application changed edges (%d -> %d)",
					m, variant, len(edges), len(b.Edges))
			}
			if err := b.Verify(); err != nil {
				t.Errorf("%s/%s: mitigated block fails Verify: %v", m, variant, err)
			}
		}
	}
}

func TestUnsafePipelineIsNoOp(t *testing.T) {
	b := v1Block(t)
	insts := append([]ir.Inst(nil), b.Insts...)
	edges := append([]ir.Edge(nil), b.Edges...)
	rep := Apply(nil, core.ModeUnsafe, b, nil)
	if !rep.PatternFound() {
		t.Error("unsafe mode should still report the detected pattern")
	}
	if !reflect.DeepEqual(b.Insts, insts) || !reflect.DeepEqual(b.Edges, edges) {
		t.Fatal("unsafe mode mutated the block")
	}
}

// loadfence pins every speculative load — the blanket strawman.
func TestLoadFencePinsEveryLoad(t *testing.T) {
	b := v1Block(t)
	Apply(nil, core.ModeLoadFence, b, nil)
	for i, in := range b.Insts {
		if in.IsLoad() && b.HasRelaxableIn(i) {
			t.Errorf("load n%d still speculative under loadfence", i)
		}
	}
}

// sfi-clamp keeps the risky load speculative but rewrites its address
// to a mask-chain result: the leak is neutralised without losing the
// speculation.
func TestSFIClampMasksInsteadOfPinning(t *testing.T) {
	b := v1Block(t)
	rep := Apply(nil, core.ModeSFIClamp, b, nil)
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
	// One BEQ guard: XOR, SLTU (predicate), SUB (mask), AND (clamp).
	var inserted int
	for _, in := range b.Insts {
		if in.DestArch == ir.TempDest {
			inserted++
		}
	}
	if inserted != 4 {
		t.Errorf("block has %d TempDest insts, want the 4 of one branch guard's mask chain", inserted)
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
	rep := Apply(nil, core.ModeSFIClamp, b, nil)
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

// fence-min pins a vertex cut of the poison flow: after the mitigation,
// re-analysis must find no remaining Spectre pattern.
func TestFenceMinCutsThePattern(t *testing.T) {
	for variant, mk := range blockMakers {
		b := mk(t)
		rep := Apply(nil, core.ModeFenceMin, b, nil)
		if !rep.PatternFound() {
			t.Fatalf("%s: pattern not detected", variant)
		}
		if after := core.Analyze(b); after.PatternFound() {
			t.Errorf("%s: pattern survives fence-min: %+v", variant, after)
		}
	}
}

// The audit report of an application counts the guard edges the
// mitigation inserted and replays against the mitigated block.
func TestAuditAttribution(t *testing.T) {
	for _, m := range core.Modes() {
		b := v1Block(t)
		aud := &ir.AuditReport{}
		rep := Apply(nil, m, b, aud)
		if aud.GuardEdges != rep.GuardEdges {
			t.Errorf("%s: audit GuardEdges %d != report %d", m, aud.GuardEdges, rep.GuardEdges)
		}
		if err := aud.Verify(b, m == core.ModeGhostBusters); err != nil {
			t.Errorf("%s: audit fails verification: %v", m, err)
		}
	}
}

// Mitigations mutate blocks only through deterministic iteration:
// repeated applications to equal blocks must agree byte-for-byte.
func TestPipelinesDeterministic(t *testing.T) {
	for _, m := range core.Modes() {
		for variant, mk := range blockMakers {
			ref := mk(t)
			Apply(nil, m, ref, nil)
			for i := 0; i < 4; i++ {
				b := mk(t)
				Apply(nil, m, b, nil)
				if !reflect.DeepEqual(b.Insts, ref.Insts) || !reflect.DeepEqual(b.Edges, ref.Edges) {
					t.Fatalf("%s/%s: run %d diverged from the first application", m, variant, i)
				}
			}
		}
	}
}
