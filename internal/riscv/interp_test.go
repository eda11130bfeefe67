package riscv_test

import (
	"math/big"
	"math/rand"
	"testing"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/riscv"
)

// newBus builds a standard test memory system.
func newBus() *bus.Bus {
	mem := guestmem.New(0x10000, 1<<20)
	return &bus.Bus{Mem: mem, DC: cache.MustNew(cache.DefaultConfig())}
}

// loadProgram copies an assembled image into memory.
func loadProgram(t *testing.T, b *bus.Bus, p *riscv.Program) {
	t.Helper()
	for i, w := range p.Text {
		if err := b.Mem.Write(p.TextBase+uint64(4*i), 4, uint64(w)); err != nil {
			t.Fatalf("load text: %v", err)
		}
	}
	if len(p.Data) > 0 {
		if err := b.Mem.WriteBytes(p.DataBase, p.Data); err != nil {
			t.Fatalf("load data: %v", err)
		}
	}
}

// run interprets until exit/fault or the step limit.
func run(t *testing.T, b *bus.Bus, p *riscv.Program, maxSteps int) (*riscv.State, riscv.Event, uint64) {
	t.Helper()
	loadProgram(t, b, p)
	st := &riscv.State{PC: p.Entry}
	st.X[2] = b.Mem.Top() - 64 // sp
	tm := riscv.DefaultTiming()
	var cycles uint64
	for i := 0; i < maxSteps; i++ {
		res := riscv.Step(st, b, tm, cycles)
		cycles += res.Cycles
		if res.Event.Kind != riscv.EvNone {
			return st, res.Event, cycles
		}
	}
	t.Fatalf("program did not terminate in %d steps", maxSteps)
	return nil, riscv.Event{}, 0
}

func TestInterpArithmeticProgram(t *testing.T) {
	src := `
main:
	li a0, 20
	li a1, 1
	li a2, 1
loop:                        # fib(20) iteratively
	add a3, a1, a2
	mv a1, a2
	mv a2, a3
	addi a0, a0, -1
	bgtz a0, loop
	mv a0, a1
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 10000)
	if ev.Kind != riscv.EvExit {
		t.Fatalf("event = %+v, want exit", ev)
	}
	// fib: a1,a2 start 1,1; after 20 iterations a1 = fib(21) = 10946
	if ev.Code != 10946 {
		t.Fatalf("fib exit code = %d, want 10946", ev.Code)
	}
}

func TestInterpMemoryOps(t *testing.T) {
	src := `
	.data
buf:	.space 64
vals:	.dword 0x1122334455667788
	.text
main:
	la t0, vals
	ld t1, 0(t0)
	la t2, buf
	sd t1, 0(t2)
	lb a0, 7(t2)       # sign-extended 0x11
	lbu a1, 0(t2)      # 0x88
	lh a2, 0(t2)       # sign-extended 0x7788
	lhu a3, 6(t2)      # 0x1122
	lw a4, 0(t2)       # sign-extended 0x55667788
	lwu a5, 4(t2)      # 0x11223344
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	st, ev, _ := run(t, b, p, 1000)
	if ev.Kind != riscv.EvExit {
		t.Fatalf("event = %+v", ev)
	}
	want := map[int]uint64{
		10: 0x11,
		11: 0x88,
		12: 0x7788,
		13: 0x1122,
		14: 0x55667788,
		15: 0x11223344,
	}
	for r, w := range want {
		if st.X[r] != w {
			t.Errorf("x%d = %#x, want %#x", r, st.X[r], w)
		}
	}
}

func TestInterpBranches(t *testing.T) {
	// Exercise every branch op both ways.
	src := `
main:
	li a0, 0
	li t0, -5
	li t1, 3
	beq t0, t1, fail
	bne t0, t0, fail
	bge t0, t1, fail
	blt t1, t0, fail
	bltu t1, t0, ok1   # unsigned: 3 < 0xFF..FB
fail:
	li a0, 1
	ecall
ok1:
	bgeu t0, t1, ok2
	j fail
ok2:
	li a0, 42
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 1000)
	if ev.Code != 42 {
		t.Fatalf("exit = %d, want 42", ev.Code)
	}
}

func TestInterpJalLink(t *testing.T) {
	src := `
main:
	call fn
	mv a0, t5
	ecall
fn:
	li t5, 99
	ret
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 100)
	if ev.Code != 99 {
		t.Fatalf("exit = %d, want 99", ev.Code)
	}
}

func TestInterpRdcycleMonotonic(t *testing.T) {
	src := `
main:
	rdcycle t0
	li t2, 100
l:	addi t2, t2, -1
	bgtz t2, l
	rdcycle t1
	sub a0, t1, t0
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 10000)
	if ev.Code <= 0 {
		t.Fatalf("cycle delta = %d, want positive", ev.Code)
	}
}

func TestInterpFaults(t *testing.T) {
	// out-of-range load
	p := riscv.MustAssemble("main:\n\tli t0, 0x10\n\tld a0, 0(t0)\n\tecall\n")
	b := newBus()
	_, ev, _ := run(t, b, p, 100)
	if ev.Kind != riscv.EvFault {
		t.Fatalf("expected fault, got %+v", ev)
	}

	// protected-region load faults architecturally
	p2 := riscv.MustAssemble(`
	.data
secret:	.dword 0xdeadbeef
	.text
main:
	la t0, secret
	ld a0, 0(t0)
	ecall
`)
	b2 := newBus()
	sec := p2.MustSymbol("secret")
	b2.Mem.Protect(sec, sec+8)
	_, ev2, _ := run(t, b2, p2, 100)
	if ev2.Kind != riscv.EvFault {
		t.Fatalf("expected protection fault, got %+v", ev2)
	}
}

func TestSpeculativeLoadSquashesButFills(t *testing.T) {
	mem := guestmem.New(0x10000, 1<<20)
	b := &bus.Bus{Mem: mem, DC: cache.MustNew(cache.DefaultConfig())}
	sec := uint64(0x20000)
	if err := mem.Write(sec, 8, 0x1234); err != nil {
		t.Fatal(err)
	}
	mem.Protect(sec, sec+8)

	// Architectural load faults.
	if _, _, err := b.Load(sec, 8); err == nil {
		t.Fatal("architectural load of protected region should fault")
	}
	if b.DC.Probe(sec) {
		t.Fatal("faulting load must not fill the cache")
	}
	// Speculative load squashes the fault but returns the value and fills.
	v, _, ok := b.LoadSpeculative(sec, 8)
	if !ok || v != 0x1234 {
		t.Fatalf("speculative load = %#x ok=%v, want 0x1234 true", v, ok)
	}
	if !b.DC.Probe(sec) {
		t.Fatal("speculative load must fill the cache (the leak)")
	}
	// Fully out-of-range speculative load is squashed with no fill.
	if _, _, ok := b.LoadSpeculative(1<<40, 8); ok {
		t.Fatal("out-of-range speculative load must squash")
	}
}

func TestEbreakEvent(t *testing.T) {
	p := riscv.MustAssemble("main:\n\tebreak\n")
	b := newBus()
	_, ev, _ := run(t, b, p, 10)
	if ev.Kind != riscv.EvBreak {
		t.Fatalf("expected break, got %+v", ev)
	}
}

func TestCflushAffectsTiming(t *testing.T) {
	src := `
	.data
buf:	.dword 1
	.text
main:
	la t0, buf
	ld t1, 0(t0)       # miss, fill
	rdcycle t2
	ld t1, 0(t0)       # hit
	rdcycle t3
	sub s0, t3, t2     # hit time
	cflush t0
	rdcycle t2
	ld t1, 0(t0)       # miss again
	rdcycle t3
	sub s1, t3, t2     # miss time
	sub a0, s1, s0     # positive iff flush worked
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 100)
	if ev.Code <= 0 {
		t.Fatalf("miss-hit delta = %d, want positive", ev.Code)
	}
}

// Property: MULH/MULHU/MULHSU match math/big reference.
func TestMulHighAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b := r.Uint64(), r.Uint64()
		// mulhu
		ref := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		wantHU := new(big.Int).Rsh(ref, 64).Uint64()
		if got := riscv.EvalALU(riscv.MULHU, a, b); got != wantHU {
			t.Fatalf("mulhu(%#x,%#x) = %#x, want %#x", a, b, got, wantHU)
		}
		// mulh
		refS := new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))
		wantH := uint64(new(big.Int).Rsh(refS, 64).Int64())
		if got := riscv.EvalALU(riscv.MULH, a, b); got != wantH {
			t.Fatalf("mulh(%#x,%#x) = %#x, want %#x", a, b, got, wantH)
		}
		// mulhsu
		refSU := new(big.Int).Mul(big.NewInt(int64(a)), new(big.Int).SetUint64(b))
		wantSU := uint64(new(big.Int).Rsh(refSU, 64).Int64())
		if got := riscv.EvalALU(riscv.MULHSU, a, b); got != wantSU {
			t.Fatalf("mulhsu(%#x,%#x) = %#x, want %#x", a, b, got, wantSU)
		}
	}
}

func TestDivRemEdgeCases(t *testing.T) {
	minI := uint64(1) << 63
	cases := []struct {
		op      riscv.Op
		a, b, w uint64
	}{
		{riscv.DIV, 7, 0, ^uint64(0)},
		{riscv.DIVU, 7, 0, ^uint64(0)},
		{riscv.REM, 7, 0, 7},
		{riscv.REMU, 7, 0, 7},
		{riscv.DIV, minI, ^uint64(0), minI},
		{riscv.REM, minI, ^uint64(0), 0},
		{riscv.DIV, uint64(^uint64(0) - 19), 5, uint64(^uint64(0) - 3)}, // -20/5 = -4
		{riscv.REM, uint64(^uint64(0) - 19), 7, uint64(^uint64(0) - 5)}, // -20%7 = -6
		{riscv.DIVW, 7, 0, ^uint64(0)},
		{riscv.REMW, ^uint64(0) - 6, 0, ^uint64(0) - 6},
		{riscv.DIVW, uint64(uint32(1) << 31), ^uint64(0), 0xFFFFFFFF80000000},
		{riscv.REMW, uint64(uint32(1) << 31), ^uint64(0), 0},
		{riscv.DIVUW, 100, 7, 14},
		{riscv.REMUW, 100, 7, 2},
	}
	for _, c := range cases {
		if got := riscv.EvalALU(c.op, c.a, c.b); got != c.w {
			t.Errorf("%s(%#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.w)
		}
	}
}

// Property: W-form results are always sign-extended 32-bit values.
func TestWFormsSignExtended(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	wOps := []riscv.Op{riscv.ADDW, riscv.SUBW, riscv.SLLW, riscv.SRLW, riscv.SRAW,
		riscv.MULW, riscv.DIVW, riscv.DIVUW, riscv.REMW, riscv.REMUW}
	for i := 0; i < 5000; i++ {
		op := wOps[r.Intn(len(wOps))]
		a, b := r.Uint64(), r.Uint64()
		got := riscv.EvalALU(op, a, b)
		if got != uint64(int64(int32(got))) {
			t.Fatalf("%s(%#x,%#x) = %#x not sign-extended", op, a, b, got)
		}
	}
}

func TestJALRClearsLowBit(t *testing.T) {
	// jalr targets have bit 0 cleared per the ISA.
	src := `
main:
	la t0, target
	ori t0, t0, 1
	jalr ra, 0(t0)
	ecall
target:
	li a0, 77
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 100)
	if ev.Code != 77 {
		t.Fatalf("exit = %d, want 77 (low bit must be cleared)", ev.Code)
	}
}

func TestCSRWritesIgnoredOnCounters(t *testing.T) {
	// cycle/instret are read-only: csrrw/csrrc attempts are ignored but
	// still return the counter value.
	src := `
main:
	li t0, 999
	csrrw t1, 0xc00, t0
	csrrc t2, 0xc02, t0
	li a0, 1
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	st, ev, _ := run(t, b, p, 100)
	if ev.Kind != riscv.EvExit {
		t.Fatalf("event %+v", ev)
	}
	if st.X[6] == 999 || st.X[7] == 999 {
		t.Fatal("csr read returned the written value; counters must be read-only")
	}
}

func TestUnknownCSRReadsZero(t *testing.T) {
	src := "main:\n\tcsrr a0, 0x123\n\taddi a0, a0, 5\n\tecall\n"
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 100)
	if ev.Code != 5 {
		t.Fatalf("exit = %d, want 5 (unknown CSR reads 0)", ev.Code)
	}
}

func TestInstretCounts(t *testing.T) {
	src := `
main:
	rdinstret t0
	addi t1, t1, 1
	addi t1, t1, 1
	rdinstret t2
	sub a0, t2, t0
	ecall
`
	p := riscv.MustAssemble(src)
	b := newBus()
	_, ev, _ := run(t, b, p, 100)
	if ev.Code != 3 { // addi, addi, rdinstret itself not yet retired at read
		t.Fatalf("instret delta = %d, want 3", ev.Code)
	}
}
