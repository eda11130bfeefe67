package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ghostbusters/internal/riscv"
)

func randFrom(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildSpectreV1 builds the IR of the paper's Fig. 1 gadget body as a
// trace: compare, side-exit branch, two dependent loads.
//
//	n0: slt  t = index < size
//	n1: beq  t, exit        (side exit if bounds check fails)
//	n2: lb   a = buffer[index]
//	n3: slli s = a << 7
//	n4: lb   b = arrayVal[s]
func buildSpectreV1(t *testing.T) *Block {
	t.Helper()
	bu := NewBuilder(0x1000)
	n0 := bu.Emit(Inst{Op: riscv.SLTU, A: RegIn(10), B: RegIn(11), DestArch: 5, PC: 0x1000})
	bu.Emit(Inst{Op: riscv.BEQ, A: FromInst(n0), B: Operand{}, DestArch: -1, PC: 0x1004, BranchExit: 0x2000})
	n2 := bu.Emit(Inst{Op: riscv.LB, A: RegIn(12), Imm: 0, DestArch: 6, PC: 0x1008})
	n3 := bu.Emit(Inst{Op: riscv.SLLI, A: FromInst(n2), Imm: 7, DestArch: 7, PC: 0x100c})
	bu.Emit(Inst{Op: riscv.LB, A: FromInst(n3), Imm: 0, DestArch: 28, PC: 0x1010})
	bu.SetFallthrough(0x1014, false)
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return b
}

// buildSpectreV4 builds the Fig. 2 gadget: slow store, then dependent
// loads that the scheduler may hoist above it.
//
//	n0: mul  v = r1 * r2        (long computation)
//	n1: sd   addrBuf[0] = v
//	n2: ld   a = addrBuf[0]     (same base, unknown vs n1? same base+imm -> aliasAlways)
//
// To get the speculative case the load uses a different base register
// (the DBT engine cannot prove the addresses equal), mirroring the paper.
func buildSpectreV4(t *testing.T) *Block {
	t.Helper()
	bu := NewBuilder(0x3000)
	n0 := bu.Emit(Inst{Op: riscv.MUL, A: RegIn(5), B: RegIn(6), DestArch: 7, PC: 0x3000})
	bu.Emit(Inst{Op: riscv.SD, A: RegIn(8), B: FromInst(n0), Imm: 0, DestArch: -1, PC: 0x3004})
	n2 := bu.Emit(Inst{Op: riscv.LD, A: RegIn(9), Imm: 0, DestArch: 10, PC: 0x3008})
	n3 := bu.Emit(Inst{Op: riscv.ADD, A: FromInst(n2), B: RegIn(11), DestArch: 12, PC: 0x300c})
	bu.Emit(Inst{Op: riscv.LB, A: FromInst(n3), Imm: 0, DestArch: 13, PC: 0x3010})
	bu.SetFallthrough(0x3014, false)
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return b
}

func findEdge(b *Block, from, to int) (Edge, bool) {
	for _, e := range b.Edges {
		if e.From == from && e.To == to {
			return e, true
		}
	}
	return Edge{}, false
}

func TestBuilderSpectreV1Edges(t *testing.T) {
	b := buildSpectreV1(t)
	// Branch -> both loads: relaxable ctrl edges.
	for _, load := range []int{2, 4} {
		e, ok := findEdge(b, 1, load)
		if !ok || e.Kind != EdgeCtrl || !e.Relaxable {
			t.Errorf("branch->load %d edge = %+v ok=%v, want relaxable ctrl", load, e, ok)
		}
	}
	// Compare (n0) must stay before the branch (arch effect before exit).
	if e, ok := findEdge(b, 0, 1); !ok || e.Relaxable {
		t.Errorf("n0->branch edge missing or relaxable: %+v %v", e, ok)
	}
}

func TestBuilderSpectreV4Edges(t *testing.T) {
	b := buildSpectreV4(t)
	// Store -> load with unprovable alias: relaxable mem edge.
	e, ok := findEdge(b, 1, 2)
	if !ok || e.Kind != EdgeMem || !e.Relaxable {
		t.Fatalf("store->load edge = %+v ok=%v, want relaxable mem", e, ok)
	}
	// Store -> second load too.
	if e, ok := findEdge(b, 1, 4); !ok || !e.Relaxable {
		t.Errorf("store->load2 edge = %+v ok=%v", e, ok)
	}
}

func TestBuilderAliasAnalysis(t *testing.T) {
	bu := NewBuilder(0)
	// Two accesses off the same incoming base register.
	bu.Emit(Inst{Op: riscv.SD, A: RegIn(8), B: RegIn(5), Imm: 0, DestArch: -1})
	n1 := bu.Emit(Inst{Op: riscv.LD, A: RegIn(8), Imm: 0, DestArch: 6}) // same addr: hard
	n2 := bu.Emit(Inst{Op: riscv.LD, A: RegIn(8), Imm: 8, DestArch: 7}) // disjoint: none
	n3 := bu.Emit(Inst{Op: riscv.LW, A: RegIn(8), Imm: 4, DestArch: 9}) // disjoint from sd(0,8)? overlaps [4,8): yes overlaps
	b := bu.Block()
	if e, ok := findEdge(b, 0, n1); !ok || e.Relaxable {
		t.Errorf("same-address st->ld should be hard edge, got %+v %v", e, ok)
	}
	if _, ok := findEdge(b, 0, n2); ok {
		t.Error("provably-disjoint st->ld should have no edge")
	}
	if e, ok := findEdge(b, 0, n3); !ok || e.Relaxable {
		t.Errorf("overlapping st->lw should be hard, got %+v %v", e, ok)
	}
}

func TestBuilderStoreOrdering(t *testing.T) {
	bu := NewBuilder(0)
	n0 := bu.Emit(Inst{Op: riscv.LD, A: RegIn(8), Imm: 0, DestArch: 5})
	n1 := bu.Emit(Inst{Op: riscv.SD, A: RegIn(9), B: FromInst(n0), Imm: 0, DestArch: -1})
	n2 := bu.Emit(Inst{Op: riscv.SD, A: RegIn(10), B: FromInst(n0), Imm: 0, DestArch: -1})
	b := bu.Block()
	// load -> store and store -> store are hard.
	if e, ok := findEdge(b, n0, n1); !ok || e.Relaxable {
		t.Errorf("ld->st edge = %+v %v, want hard", e, ok)
	}
	if e, ok := findEdge(b, n1, n2); !ok || e.Relaxable {
		t.Errorf("st->st edge = %+v %v, want hard", e, ok)
	}
}

func TestBuilderBarrier(t *testing.T) {
	bu := NewBuilder(0)
	n0 := bu.Emit(Inst{Op: riscv.LD, A: RegIn(8), Imm: 0, DestArch: 5})
	n1 := bu.Emit(Inst{Op: riscv.CSRRS, Imm: riscv.CSRCycle, DestArch: 6})
	n2 := bu.Emit(Inst{Op: riscv.LD, A: RegIn(8), Imm: 8, DestArch: 7})
	b := bu.Block()
	if e, ok := findEdge(b, n0, n1); !ok || e.Relaxable {
		t.Errorf("ld->rdcycle edge = %+v %v, want hard", e, ok)
	}
	if e, ok := findEdge(b, n1, n2); !ok || e.Relaxable {
		t.Errorf("rdcycle->ld edge = %+v %v, want hard", e, ok)
	}
}

func TestBuilderRenaming(t *testing.T) {
	bu := NewBuilder(0)
	if op := bu.Reg(5); op.Kind != OpRegIn || op.Reg != 5 {
		t.Fatalf("initial Reg(5) = %+v", op)
	}
	if op := bu.Reg(0); op.Kind != OpNone {
		t.Fatalf("Reg(0) = %+v, want none (constant zero)", op)
	}
	n0 := bu.Emit(Inst{Op: riscv.ADDI, A: RegIn(5), Imm: 1, DestArch: 5})
	if op := bu.Reg(5); op.Kind != OpInst || op.Inst != n0 {
		t.Fatalf("Reg(5) after write = %+v", op)
	}
}

func TestPinHelpers(t *testing.T) {
	b := buildSpectreV4(t)
	if !b.HasRelaxableIn(2) {
		t.Fatal("load n2 should have a relaxable in-edge")
	}
	b.PinInto(2)
	if b.HasRelaxableIn(2) {
		t.Fatal("PinInto left a relaxable edge")
	}
	// PinFrom on the store pins the other load as well.
	if !b.HasRelaxableIn(4) {
		t.Fatal("load n4 should still be relaxable")
	}
	b.PinFrom(1)
	if b.HasRelaxableIn(4) {
		t.Fatal("PinFrom(store) left load n4 relaxable")
	}
	b2 := buildSpectreV1(t)
	b2.PinAll()
	for _, e := range b2.Edges {
		if e.Relaxable {
			t.Fatal("PinAll left a relaxable edge")
		}
	}
}

func TestVerifyCatchesBadBlocks(t *testing.T) {
	cases := []func() *Block{
		func() *Block { // operand references later inst
			b := &Block{}
			b.AddInst(Inst{Op: riscv.ADD, A: FromInst(1), DestArch: 5})
			b.AddInst(Inst{Op: riscv.ADD, DestArch: 6})
			return b
		},
		func() *Block { // backward edge
			b := &Block{}
			b.AddInst(Inst{Op: riscv.ADD, DestArch: 5})
			b.AddInst(Inst{Op: riscv.ADD, DestArch: 6})
			b.AddEdge(Edge{From: 1, To: 0})
			return b
		},
		func() *Block { // branch without exit
			b := &Block{}
			b.AddInst(Inst{Op: riscv.BEQ, DestArch: -1})
			return b
		},
		func() *Block { // store defining a register
			b := &Block{}
			b.AddInst(Inst{Op: riscv.SD, DestArch: 4})
			return b
		},
		func() *Block { // relaxable guard edge
			b := &Block{}
			b.AddInst(Inst{Op: riscv.ADD, DestArch: 5})
			b.AddInst(Inst{Op: riscv.ADD, DestArch: 6})
			b.AddEdge(Edge{From: 0, To: 1, Kind: EdgeGuard, Relaxable: true})
			return b
		},
	}
	for i, mk := range cases {
		if err := mk().Verify(); err == nil {
			t.Errorf("case %d: Verify should fail", i)
		}
	}
}

func TestBlockString(t *testing.T) {
	b := buildSpectreV1(t)
	s := b.String()
	if s == "" || len(s) < 40 {
		t.Fatalf("String too short: %q", s)
	}
}

func TestDotExport(t *testing.T) {
	b := buildSpectreV4(t)
	b.AddEdge(Edge{From: 1, To: 4, Kind: EdgeGuard})
	dot := b.Dot(&DotOverlay{Poisoned: map[int]bool{2: true, 3: true}})
	for _, want := range []string{
		"digraph block",
		"n0 ->", "color=red, style=dashed", // the guard dependency
		"color=blue", // poisoned value flow
		"mem",        // edge labels
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q:\n%s", want, dot)
		}
	}
	// Plain rendering (no poison) still works.
	if plain := b.Dot(nil); !strings.Contains(plain, "digraph") {
		t.Error("plain Dot broken")
	}
}

// Property: any instruction sequence emitted through the Builder yields
// a block that passes Verify — the Builder maintains all IR invariants
// by construction.
func TestBuilderAlwaysProducesValidBlocks(t *testing.T) {
	ops := []struct {
		op   riscv.Op
		kind int // 0 aluRR, 1 aluRI, 2 load, 3 store, 4 branch, 5 barrier
	}{
		{riscv.ADD, 0}, {riscv.MUL, 0}, {riscv.XOR, 0}, {riscv.SLT, 0},
		{riscv.ADDI, 1}, {riscv.ANDI, 1}, {riscv.SLLI, 1},
		{riscv.LD, 2}, {riscv.LW, 2}, {riscv.LBU, 2},
		{riscv.SD, 3}, {riscv.SB, 3},
		{riscv.BEQ, 4}, {riscv.BLT, 4},
		{riscv.CSRRS, 5}, {riscv.CFLUSH, 5}, {riscv.FENCE, 5},
	}
	f := func(seed int64, length uint8) bool {
		r := randFrom(seed)
		bu := NewBuilder(0x1000)
		cur := map[uint8]int{}
		operand := func() Operand {
			reg := uint8(5 + r.Intn(10))
			if d, ok := cur[reg]; ok {
				return FromInst(d)
			}
			return RegIn(reg)
		}
		n := 1 + int(length%40)
		for i := 0; i < n; i++ {
			c := ops[r.Intn(len(ops))]
			in := Inst{Op: c.op, PC: uint64(0x1000 + 4*i), DestArch: -1}
			switch c.kind {
			case 0:
				in.A, in.B = operand(), operand()
				in.DestArch = int8(5 + r.Intn(10))
			case 1:
				in.A, in.Imm = operand(), int64(r.Intn(100))
				in.DestArch = int8(5 + r.Intn(10))
			case 2:
				in.A, in.Imm = operand(), int64(8*r.Intn(32))
				in.DestArch = int8(5 + r.Intn(10))
			case 3:
				in.A, in.B, in.Imm = operand(), operand(), int64(8*r.Intn(32))
			case 4:
				in.A, in.B, in.BranchExit = operand(), operand(), 0x9000
			case 5:
				if c.op == riscv.CSRRS {
					in.Imm = riscv.CSRCycle
					in.DestArch = int8(5 + r.Intn(10))
				}
				if c.op == riscv.CFLUSH {
					in.A = operand()
				}
			}
			id := bu.Emit(in)
			if in.DestArch > 0 {
				cur[uint8(in.DestArch)] = id
			}
		}
		bu.SetFallthrough(0x2000, false)
		return bu.Block().Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInstsRenumbers(t *testing.T) {
	b := buildSpectreV1(t)
	before := append([]Inst(nil), b.Insts...)
	edgesBefore := append([]Edge(nil), b.Edges...)
	// Insert a two-inst TempDest chain before n3. The first element
	// references an existing instruction by its pre-insertion index
	// (0 < at, so it stays meaningful); the second references the first
	// by its final index at+0 = 3 and an existing one (n2 < at).
	chain := []Inst{
		{Op: riscv.XORI, A: FromInst(0), Imm: 1, DestArch: TempDest},
		{Op: riscv.AND, A: FromInst(3), B: FromInst(2), DestArch: TempDest},
	}
	b.InsertInsts(3, chain)
	if len(b.Insts) != len(before)+2 {
		t.Fatalf("len = %d, want %d", len(b.Insts), len(before)+2)
	}
	if b.Insts[3].A.Inst != 0 {
		t.Errorf("inserted[0].A = %v, want n0", b.Insts[3].A)
	}
	if b.Insts[4].A.Inst != 3 || b.Insts[4].B.Inst != 2 {
		t.Errorf("inserted[1] operands = %v, %v, want n3 (chain head), n2", b.Insts[4].A, b.Insts[4].B)
	}
	// Old n3 moved to index 5; its operand (n2 < at) is unshifted.
	if b.Insts[5].Op != riscv.SLLI || b.Insts[5].A.Inst != 2 {
		t.Errorf("shifted slli = %+v", b.Insts[5])
	}
	// Old n4 read n3, which is now index 5.
	if b.Insts[6].A.Inst != 5 {
		t.Errorf("shifted load reads %v, want n5", b.Insts[6].A)
	}
	shift := func(i int) int {
		if i >= 3 {
			return i + 2
		}
		return i
	}
	for k, e := range edgesBefore {
		got := b.Edges[k]
		if got.From != shift(e.From) || got.To != shift(e.To) || got.Kind != e.Kind {
			t.Errorf("edge %d = %+v, want shifted %+v", k, got, e)
		}
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInstsEmpty(t *testing.T) {
	b := buildSpectreV1(t)
	before := append([]Inst(nil), b.Insts...)
	b.InsertInsts(2, nil)
	if len(b.Insts) != len(before) || b.Insts[2].A != before[2].A {
		t.Fatal("empty insertion changed the block")
	}
}

// TempDest instructions may read superseded values (entry value of a
// redefined register, or an earlier definition's result); the same read
// from an instruction with an architectural destination violates the
// renaming invariant.
func TestVerifyTempDestExemptions(t *testing.T) {
	mk := func(dest int8) *Block {
		return &Block{Insts: []Inst{
			{Op: riscv.ADD, A: RegIn(6), DestArch: 5},
			{Op: riscv.XORI, A: FromInst(0), Imm: 1, DestArch: 5}, // redefines x5
			{Op: riscv.ANDI, A: FromInst(0), Imm: 7, DestArch: dest},
		}}
	}
	if err := mk(TempDest).Verify(); err != nil {
		t.Fatalf("TempDest read of a superseded definition must pass Verify: %v", err)
	}
	if err := mk(7).Verify(); err == nil {
		t.Fatal("architectural read of a superseded definition must fail Verify")
	}
	withEntryRead := func(dest int8) *Block {
		b := mk(TempDest)
		b.Insts = append(b.Insts, Inst{Op: riscv.ORI, A: RegIn(5), Imm: 1, DestArch: dest})
		return b
	}
	if err := withEntryRead(TempDest).Verify(); err != nil {
		t.Fatalf("TempDest read of a redefined entry register must pass Verify: %v", err)
	}
	if err := withEntryRead(9).Verify(); err == nil {
		t.Fatal("architectural read of a redefined entry register must fail Verify")
	}
}

func TestStringRendersTempDest(t *testing.T) {
	b := &Block{Insts: []Inst{
		{Op: riscv.ADD, A: RegIn(6), DestArch: 5},
		{Op: riscv.XORI, A: FromInst(0), Imm: 1, DestArch: TempDest},
	}}
	if s := b.String(); !strings.Contains(s, "tmp") {
		t.Fatalf("String does not render TempDest as tmp:\n%s", s)
	}
}
