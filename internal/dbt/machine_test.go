package dbt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// aliases keep the width-equivalence test readable
type vliwConfig = vliw.Config

var (
	vliwNarrow  = vliw.NarrowConfig
	vliwDefault = vliw.DefaultConfig
	vliwWide    = vliw.WideConfig
)

// runSrc assembles and runs a program under cfg, returning the result.
func runSrc(t *testing.T, src string, cfg Config) (*Result, *Machine) {
	t.Helper()
	p, err := riscv.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, m
}

// allConfigs enumerates the execution configurations that must agree
// architecturally.
func allConfigs() map[string]Config {
	cfgs := map[string]Config{}
	interp := DefaultConfig()
	interp.DisableTranslation = true
	cfgs["interp"] = interp

	blocks := DefaultConfig()
	blocks.DisableTraces = true
	cfgs["blocks"] = blocks

	for _, mode := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation} {
		c := DefaultConfig()
		c.Mitigation = mode
		cfgs["traces-"+mode.String()] = c
	}
	return cfgs
}

// checkEquivalence runs src under every configuration and requires the
// same exit code and the same final values for the given symbols.
func checkEquivalence(t *testing.T, src string, words []string) {
	t.Helper()
	p, err := riscv.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	type outcome struct {
		code int64
		mem  map[string]uint64
	}
	var ref *outcome
	var refName string
	for name, cfg := range allConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if res.Stats.CompileErrs != 0 {
			t.Fatalf("%s: %d compile errors", name, res.Stats.CompileErrs)
		}
		o := &outcome{code: res.Exit.Code, mem: map[string]uint64{}}
		for _, sym := range words {
			addr := p.MustSymbol(sym)
			v, err := m.Mem().Read(addr, 8)
			if err != nil {
				t.Fatalf("%s: read %s: %v", name, sym, err)
			}
			o.mem[sym] = v
		}
		if ref == nil {
			ref, refName = o, name
			continue
		}
		if o.code != ref.code {
			t.Errorf("%s exit=%d, %s exit=%d", name, o.code, refName, ref.code)
		}
		for _, sym := range words {
			if o.mem[sym] != ref.mem[sym] {
				t.Errorf("%s: %s=%#x, %s: %#x", name, sym, o.mem[sym], refName, ref.mem[sym])
			}
		}
	}
}

func TestEquivFib(t *testing.T) {
	checkEquivalence(t, `
main:
	li a0, 30
	li a1, 1
	li a2, 1
loop:
	add a3, a1, a2
	mv a1, a2
	mv a2, a3
	addi a0, a0, -1
	bgtz a0, loop
	mv a0, a1
	andi a0, a0, 0xff
	ecall
`, nil)
}

func TestEquivMemCopyLoop(t *testing.T) {
	checkEquivalence(t, `
	.equ N, 64
	.data
src:	.space 512
dst:	.space 512
sum:	.dword 0
	.text
main:
	# initialise src[i] = i*3+1
	la t0, src
	li t1, 0
init:
	slli t2, t1, 1
	add t2, t2, t1
	addi t2, t2, 1
	sd t2, 0(t0)
	addi t0, t0, 8
	addi t1, t1, 1
	li t3, N
	blt t1, t3, init
	# copy + accumulate
	la t0, src
	la t4, dst
	li t1, 0
	li a0, 0
copy:
	ld t2, 0(t0)
	sd t2, 0(t4)
	add a0, a0, t2
	addi t0, t0, 8
	addi t4, t4, 8
	addi t1, t1, 1
	blt t1, t3, copy
	la t5, sum
	sd a0, 0(t5)
	andi a0, a0, 0xff
	ecall
`, []string{"sum"})
}

func TestEquivNestedLoopsMul(t *testing.T) {
	checkEquivalence(t, `
	.data
acc:	.dword 0
	.text
main:
	li s0, 0          # acc
	li s1, 0          # i
outer:
	li s2, 0          # j
inner:
	mul t0, s1, s2
	add s0, s0, t0
	addi s2, s2, 1
	li t1, 17
	blt s2, t1, inner
	addi s1, s1, 1
	li t1, 13
	blt s1, t1, outer
	la t2, acc
	sd s0, 0(t2)
	andi a0, s0, 0xff
	ecall
`, []string{"acc"})
}

func TestEquivCallsAndReturns(t *testing.T) {
	checkEquivalence(t, `
main:
	li s0, 0
	li s1, 0
mloop:
	mv a0, s1
	call square
	add s0, s0, a0
	addi s1, s1, 1
	li t0, 50
	blt s1, t0, mloop
	andi a0, s0, 0xff
	ecall
square:
	mul a0, a0, a0
	ret
`, nil)
}

// Aliasing stress: stores and loads to the same buffer through different
// base registers, exercising memory speculation and MCB recovery.
func TestEquivAliasingStoreLoad(t *testing.T) {
	checkEquivalence(t, `
	.data
buf:	.space 256
out:	.dword 0
	.text
main:
	la s0, buf
	la s1, buf        # alias, DBT cannot prove it
	li s2, 0
	li s3, 0
loop:
	andi t0, s2, 7
	slli t0, t0, 3
	add t1, s0, t0    # &buf[k]
	sd s2, 0(t1)      # store through s0 view
	add t2, s1, t0    # same address via s1 view
	ld t3, 0(t2)      # load must see the store
	add s3, s3, t3
	addi s2, s2, 1
	li t4, 200
	blt s2, t4, loop
	la t5, out
	sd s3, 0(t5)
	andi a0, s3, 0xff
	ecall
`, []string{"out"})
}

// Same-iteration read-after-write with shifting offsets (conflicts only
// sometimes), plus loads that usually do not alias: recovery paths fire
// on a subset of iterations.
func TestEquivSometimesAliasing(t *testing.T) {
	checkEquivalence(t, `
	.data
buf:	.space 1024
out:	.dword 0
	.text
main:
	la s0, buf
	li s2, 0
	li s3, 0
loop:
	andi t0, s2, 63
	slli t0, t0, 3
	add t1, s0, t0
	mul t6, s2, s2      # long computation feeding the store
	sd t6, 0(t1)
	andi t2, s2, 31     # different (sometimes equal) slot
	slli t2, t2, 3
	add t3, s0, t2
	ld t4, 0(t3)
	add s3, s3, t4
	addi s2, s2, 1
	li t5, 300
	blt s2, t5, loop
	la t0, out
	sd s3, 0(t0)
	andi a0, s3, 0xff
	ecall
`, []string{"out"})
}

// Branchy code with data-dependent directions: exercises side exits on
// traces trained the other way.
func TestEquivDataDependentBranches(t *testing.T) {
	checkEquivalence(t, `
	.data
out:	.dword 0
	.text
main:
	li s0, 0
	li s1, 0
	li s2, 1234567
loop:
	# xorshift-ish PRNG
	slli t0, s2, 13
	xor s2, s2, t0
	srli t0, s2, 7
	xor s2, s2, t0
	slli t0, s2, 17
	xor s2, s2, t0
	andi t1, s2, 15
	li t2, 13
	blt t1, t2, mostly       # ~81% taken
	addi s0, s0, 7
	j done
mostly:
	addi s0, s0, 1
done:
	addi s1, s1, 1
	li t3, 500
	blt s1, t3, loop
	la t4, out
	sd s0, 0(t4)
	andi a0, s0, 0xff
	ecall
`, []string{"out"})
}

func TestEquivSubWordAccesses(t *testing.T) {
	checkEquivalence(t, `
	.data
buf:	.space 128
out:	.dword 0
	.text
main:
	la s0, buf
	li s1, 0
fill:
	add t0, s0, s1
	andi t1, s1, 0xff
	sb t1, 0(t0)
	addi s1, s1, 1
	li t2, 100
	blt s1, t2, fill
	li s1, 0
	li s3, 0
rd:
	add t0, s0, s1
	lb t1, 0(t0)
	lbu t2, 1(t0)
	lh t3, 0(t0)
	lhu t4, 2(t0)
	lw t5, 0(t0)
	add s3, s3, t1
	add s3, s3, t2
	add s3, s3, t3
	add s3, s3, t4
	add s3, s3, t5
	addi s1, s1, 4
	li t6, 90
	blt s1, t6, rd
	la t0, out
	sd s3, 0(t0)
	andi a0, s3, 0xff
	ecall
`, []string{"out"})
}

func TestEquivDivRem(t *testing.T) {
	checkEquivalence(t, `
main:
	li s0, 0
	li s1, 1
loop:
	li t0, 1000003
	div t1, t0, s1
	rem t2, t0, s1
	add s0, s0, t1
	add s0, s0, t2
	divu t3, s0, s1
	add s0, s0, t3
	addi s1, s1, 1
	li t4, 60
	blt s1, t4, loop
	andi a0, s0, 0xff
	ecall
`, nil)
}

// Random straight-line+loop programs: differential testing against the
// interpreter across all configurations.
func TestEquivRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		src := genRandomProgram(r)
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			checkEquivalence(t, src, []string{"res0", "res1", "res2"})
		})
	}
}

// genRandomProgram emits a loop whose body is a random mix of ALU ops,
// loads and stores into a scratch buffer (same-base and different-base
// addressing to exercise the alias analysis), always terminating.
func genRandomProgram(r *rand.Rand) string {
	aluOps := []string{"add", "sub", "xor", "or", "and", "sll", "srl", "sra",
		"addw", "subw", "mul", "mulw", "sllw", "srlw", "sraw", "slt", "sltu"}
	aluImm := []string{"addi", "xori", "ori", "andi", "slti", "sltiu", "addiw"}
	regs := []string{"t0", "t1", "t2", "t3", "t4", "s2", "s3", "s4", "s5"}

	src := `
	.data
buf:	.space 512
res0:	.dword 0
res1:	.dword 0
res2:	.dword 0
	.text
main:
	la s0, buf
	la s1, buf+256
	li s6, 0
`
	// random init
	for _, reg := range regs {
		src += fmt.Sprintf("\tli %s, %d\n", reg, r.Int63n(1<<30)-(1<<29))
	}
	src += "loop:\n"
	body := 8 + r.Intn(16)
	for i := 0; i < body; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			op := aluOps[r.Intn(len(aluOps))]
			src += fmt.Sprintf("\t%s %s, %s, %s\n", op,
				regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], regs[r.Intn(len(regs))])
		case 4, 5:
			op := aluImm[r.Intn(len(aluImm))]
			src += fmt.Sprintf("\t%s %s, %s, %d\n", op,
				regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], r.Intn(2048)-1024)
		case 6:
			// shift-imm
			src += fmt.Sprintf("\tslli %s, %s, %d\n",
				regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], r.Intn(64))
		case 7:
			// store to a bounded slot through one of the two views
			base := []string{"s0", "s1"}[r.Intn(2)]
			val := regs[r.Intn(len(regs))]
			tmp := "a2"
			src += fmt.Sprintf("\tandi %s, %s, 31\n", tmp, regs[r.Intn(len(regs))])
			src += fmt.Sprintf("\tslli %s, %s, 3\n", tmp, tmp)
			src += fmt.Sprintf("\tadd %s, %s, %s\n", tmp, tmp, base)
			src += fmt.Sprintf("\tsd %s, 0(%s)\n", val, tmp)
		default:
			// load from a bounded slot
			base := []string{"s0", "s1"}[r.Intn(2)]
			dst := regs[r.Intn(len(regs))]
			tmp := "a3"
			src += fmt.Sprintf("\tandi %s, %s, 31\n", tmp, regs[r.Intn(len(regs))])
			src += fmt.Sprintf("\tslli %s, %s, 3\n", tmp, tmp)
			src += fmt.Sprintf("\tadd %s, %s, %s\n", tmp, tmp, base)
			src += fmt.Sprintf("\tld %s, 0(%s)\n", dst, tmp)
		}
	}
	iters := 80 + r.Intn(200)
	src += fmt.Sprintf(`
	addi s6, s6, 1
	li a4, %d
	blt s6, a4, loop
`, iters)
	// fold results into memory
	src += "\tla a5, res0\n"
	for i, reg := range []string{"t0", "s3", "t4"} {
		src += fmt.Sprintf("\tsd %s, %d(a5)\n", reg, 8*i)
	}
	src += "\tli a0, 0\n\tecall\n"
	return src
}

func TestSpeculationHappensAndMitigationStops(t *testing.T) {
	// Load-heavy loop with a store the loads cannot be proven disjoint
	// from: Unsafe must speculate, NoSpeculation must not.
	src := `
	.data
a:	.space 800
b:	.space 800
	.text
main:
	la s0, a
	la s1, b
	li s2, 0
loop:
	andi t0, s2, 63
	slli t0, t0, 3
	add t1, s1, t0
	sd s2, 0(t1)
	ld t2, 0(s0)
	ld t3, 8(s0)
	add t4, t2, t3
	sd t4, 16(s1)
	addi s2, s2, 1
	li t5, 400
	blt s2, t5, loop
	li a0, 0
	ecall
`
	unsafe := DefaultConfig()
	res1, _ := runSrc(t, src, unsafe)
	if res1.Stats.SpecLoads == 0 {
		t.Error("unsafe mode never issued a speculative load")
	}
	if res1.Stats.Traces == 0 {
		t.Error("no traces built")
	}

	nospec := DefaultConfig()
	nospec.Mitigation = core.ModeNoSpeculation
	res2, _ := runSrc(t, src, nospec)
	if res2.Stats.SpecLoads != 0 {
		t.Errorf("nospec issued %d speculative loads", res2.Stats.SpecLoads)
	}
	// Speculation must pay off on this kernel.
	if res1.Cycles >= res2.Cycles {
		t.Errorf("unsafe (%d cycles) not faster than nospec (%d cycles)", res1.Cycles, res2.Cycles)
	}
}

func TestTraceFormation(t *testing.T) {
	src := `
main:
	li s1, 0
	li s2, 0
loop:
	add s2, s2, s1
	addi s1, s1, 1
	li t0, 500
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`
	res, m := runSrc(t, src, DefaultConfig())
	if res.Stats.Traces == 0 {
		t.Fatal("hot loop did not become a trace")
	}
	// The loop head should be a trace with unrolled body.
	p := riscv.MustAssemble(src)
	loopPC := p.MustSymbol("loop")
	if ok, isTrace := m.TranslatedAt(loopPC); !ok || !isTrace {
		t.Fatalf("loop head translated=%v trace=%v", ok, isTrace)
	}
	blk := m.BlockAt(loopPC)
	if blk.GuestInsts <= 6 {
		t.Errorf("trace covers %d guest insts; expected unrolling", blk.GuestInsts)
	}
}

func TestInterpreterOnlyMatchesAndIsSlower(t *testing.T) {
	src := `
main:
	li s1, 0
	li s2, 0
loop:
	add s2, s2, s1
	addi s1, s1, 1
	li t0, 2000
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`
	interp := DefaultConfig()
	interp.DisableTranslation = true
	r1, _ := runSrc(t, src, interp)
	r2, _ := runSrc(t, src, DefaultConfig())
	if r1.Exit.Code != r2.Exit.Code {
		t.Fatalf("exit codes differ: %d vs %d", r1.Exit.Code, r2.Exit.Code)
	}
	if r2.Cycles >= r1.Cycles {
		t.Errorf("DBT (%d cycles) not faster than interpreter (%d)", r2.Cycles, r1.Cycles)
	}
}

func TestMachineConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.MemSize = 0
	if _, err := New(bad); err == nil {
		t.Error("zero MemSize accepted")
	}
	bad2 := DefaultConfig()
	bad2.Cache.Sets = 3
	if _, err := New(bad2); err == nil {
		t.Error("bad cache config accepted")
	}
}

// A mode outside the mode table has no mitigation: New must reject it
// rather than let every translation fail and the whole guest run
// interpreted under a mode that does not exist.
func TestNewRejectsUnknownMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mitigation = core.Mode(42)
	m, err := New(cfg)
	if err == nil {
		t.Fatal("New accepted mitigation mode 42")
	}
	if m != nil {
		t.Error("New returned a machine with its error")
	}
	if !strings.Contains(err.Error(), "mode(42)") {
		t.Errorf("error %q does not name the mode", err)
	}
}

func TestGuestFaultSurfaces(t *testing.T) {
	p := riscv.MustAssemble("main:\n\tli t0, 64\n\tld a0, 0(t0)\n\tecall\n")
	m, _ := New(DefaultConfig())
	_ = m.Load(p)
	if _, err := m.Run(); err == nil {
		t.Fatal("out-of-range load should fail the run")
	}
}

func TestCycleBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 10000
	p := riscv.MustAssemble("main:\nloop:\n\tj loop\n")
	m, _ := New(cfg)
	_ = m.Load(p)
	if _, err := m.Run(); err == nil {
		t.Fatal("infinite loop should hit the cycle budget")
	}
}

// Regression: an architectural effect immediately before a function
// return (indirect-jump terminator) must execute before the block exits.
func TestEquivStoreBeforeReturn(t *testing.T) {
	checkEquivalence(t, `
	.data
slot:	.dword 0
out:	.dword 0
	.text
main:
	li s0, 0
	li s1, 0
loop:
	mv a0, s0
	call put
	call get
	add s1, s1, a0
	addi s0, s0, 1
	li t0, 100
	blt s0, t0, loop
	la t0, out
	sd s1, 0(t0)
	andi a0, s1, 0xff
	ecall
put:
	la t0, slot
	sd a0, 0(t0)
	ret
get:
	la t0, slot
	ld a0, 0(t0)
	ret
`, []string{"out"})
}

// Architectural equivalence across core widths: the schedule changes,
// the results must not.
func TestEquivAcrossIssueWidths(t *testing.T) {
	src := `
	.data
buf:	.space 512
out:	.dword 0
	.text
main:
	la s0, buf
	li s2, 0
	li s3, 0
loop:
	andi t0, s2, 31
	slli t0, t0, 3
	add t1, s0, t0
	mul t2, s2, s2
	sd t2, 0(t1)
	ld t3, 8(t1)
	add s3, s3, t3
	mul t4, s3, s2
	xor s3, s3, t4
	addi s2, s2, 1
	li t5, 250
	blt s2, t5, loop
	la t6, out
	sd s3, 0(t6)
	andi a0, s3, 0xff
	ecall
`
	p := riscv.MustAssemble(src)
	widths := map[string]Config{}
	for name, core := range map[string]func() vliwConfig{
		"narrow": vliwNarrow, "default": vliwDefault, "wide": vliwWide,
	} {
		cfg := DefaultConfig()
		cfg.Core = core()
		widths[name] = cfg
	}
	var want uint64
	first := ""
	for name, cfg := range widths {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Load(p)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, _ := m.Mem().Read(p.MustSymbol("out"), 8)
		if first == "" {
			first, want = name, v
		} else if v != want {
			t.Fatalf("%s result %#x != %s result %#x", name, v, first, want)
		}
	}
}

func TestProfileReport(t *testing.T) {
	src := `
main:
	li s1, 0
loop:
	addi s1, s1, 1
	li t0, 200
	blt s1, t0, loop
	li a0, 0
	ecall
`
	res, m := runSrc(t, src, DefaultConfig())
	rep := m.ProfileReport()
	if len(rep) == 0 {
		t.Fatal("empty profile")
	}
	if rep[0].Entries == 0 || rep[0].GuestInsts == 0 {
		t.Fatalf("hottest region empty: %+v", rep[0])
	}
	if rep[0].Cycles == 0 || rep[0].Dispatches == 0 {
		t.Fatalf("hottest region has no attributed cycles: %+v", rep[0])
	}
	if rep[0].Cycles > res.Cycles {
		t.Fatalf("region charged %d cycles, whole run took %d", rep[0].Cycles, res.Cycles)
	}
	for i := 1; i < len(rep); i++ {
		if rep[i].Cycles > rep[i-1].Cycles {
			t.Fatal("profile not sorted by attributed cycles")
		}
	}
	hasTrace := false
	for _, r := range rep {
		if r.IsTrace {
			hasTrace = true
		}
	}
	if !hasTrace {
		t.Fatal("no trace in profile")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	var buf strings.Builder
	tr := obs.New(obs.LevelSpec, obs.NewTextSink(&buf))
	cfg := DefaultConfig()
	cfg.Tracer = tr
	src := `
main:
	li s1, 0
loop:
	addi s1, s1, 1
	li t0, 60
	blt s1, t0, loop
	li a0, 0
	ecall
`
	runSrc(t, src, cfg)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "interp blt") {
		t.Errorf("trace missing interpreted branch events:\n%.300s", out)
	}
	if !strings.Contains(out, "exec trace") && !strings.Contains(out, "exec block") {
		t.Errorf("trace missing dispatch events:\n%.300s", out)
	}
	if !strings.Contains(out, "translate") {
		t.Errorf("trace missing translation events:\n%.300s", out)
	}
}

// Attaching a tracer observes the run without perturbing it: cycles,
// instret and every counter stay identical to the untraced run.
func TestTracingDoesNotChangeTiming(t *testing.T) {
	src := `
	.data
buf:	.space 256
	.text
main:
	la s0, buf
	li s1, 0
loop:
	andi t0, s1, 31
	slli t0, t0, 3
	add t1, s0, t0
	sd s1, 0(t1)
	ld t2, 8(t1)
	add s2, s2, t2
	addi s1, s1, 1
	li t3, 200
	blt s1, t3, loop
	andi a0, s2, 0xff
	ecall
`
	plain, _ := runSrc(t, src, DefaultConfig())
	traced := DefaultConfig()
	tr := obs.New(obs.LevelSpec, nil)
	traced.Tracer = tr
	obsRes, _ := runSrc(t, src, traced)
	if plain.Cycles != obsRes.Cycles || plain.Instret != obsRes.Instret {
		t.Fatalf("tracing changed timing: %d/%d vs %d/%d cycles/instret",
			plain.Cycles, plain.Instret, obsRes.Cycles, obsRes.Instret)
	}
	if plain.Stats != obsRes.Stats {
		t.Fatalf("tracing changed stats:\n%+v\n%+v", plain.Stats, obsRes.Stats)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("tracer recorded nothing")
	}
}

// Stats.Snapshot flattens the run into the stable metric names shared
// with gbrun -stats -json and the gbbench perf JSON.
func TestSnapshotMetrics(t *testing.T) {
	src := `
main:
	li s1, 0
loop:
	addi s1, s1, 1
	li t0, 200
	blt s1, t0, loop
	li a0, 0
	ecall
`
	res, _ := runSrc(t, src, DefaultConfig())
	snap := res.Snapshot()
	if snap["sim.cycles"] != res.Cycles {
		t.Fatalf("sim.cycles %d != %d", snap["sim.cycles"], res.Cycles)
	}
	if snap["sim.instret"] != res.Instret {
		t.Fatalf("sim.instret %d != %d", snap["sim.instret"], res.Instret)
	}
	if snap["dbt.blocks"] != uint64(res.Stats.Blocks) ||
		snap["dbt.block_execs"] != res.Stats.BlockExecs ||
		snap["core.bundles"] != res.Stats.Bundles {
		t.Fatalf("dbt/core metrics wrong: %+v vs %+v", snap, res.Stats)
	}
	if _, ok := snap["cache.hits"]; !ok {
		t.Fatal("cache metrics missing")
	}
	for _, name := range snap.Names() {
		if strings.Contains(name, " ") || strings.ToLower(name) != name {
			t.Fatalf("metric name %q not lower-case dot-separated", name)
		}
	}
	// Trap counters appear only when non-zero; a clean run has none.
	for _, name := range snap.Names() {
		if strings.HasPrefix(name, "trap.") {
			t.Fatalf("clean run grew trap counter %s", name)
		}
	}
}

// The simulator is fully deterministic: identical programs produce
// identical cycle counts and statistics run-to-run (the attack tests and
// the experiment tables depend on this).
func TestDeterminism(t *testing.T) {
	src := `
	.data
buf:	.space 256
	.text
main:
	la s0, buf
	li s1, 0
loop:
	andi t0, s1, 31
	slli t0, t0, 3
	add t1, s0, t0
	sd s1, 0(t1)
	ld t2, 8(t1)
	add s2, s2, t2
	addi s1, s1, 1
	li t3, 300
	blt s1, t3, loop
	andi a0, s2, 0xff
	ecall
`
	r1, _ := runSrc(t, src, DefaultConfig())
	r2, _ := runSrc(t, src, DefaultConfig())
	if r1.Cycles != r2.Cycles || r1.Instret != r2.Instret {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/instret",
			r1.Cycles, r1.Instret, r2.Cycles, r2.Instret)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("stats diverge:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
}

// With VerifyEncoding the machine executes blocks that went through the
// binary VLIW encoding: results must be identical.
func TestVerifyEncodingRoundTripsLive(t *testing.T) {
	src := `
	.data
out:	.dword 0
	.text
main:
	li s1, 0
	li s2, 0
loop:
	mul t0, s1, s1
	add s2, s2, t0
	addi s1, s1, 1
	li t1, 150
	blt s1, t1, loop
	la t2, out
	sd s2, 0(t2)
	andi a0, s2, 0xff
	ecall
`
	plain, _ := runSrc(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.VerifyEncoding = true
	encoded, _ := runSrc(t, src, cfg)
	if plain.Exit.Code != encoded.Exit.Code || plain.Cycles != encoded.Cycles {
		t.Fatalf("encoded execution diverges: %d/%d vs %d/%d",
			plain.Exit.Code, plain.Cycles, encoded.Exit.Code, encoded.Cycles)
	}
	if encoded.Stats.CompileErrs != 0 {
		t.Fatalf("encode round trip failed %d times", encoded.Stats.CompileErrs)
	}
}

// A fault inside translated code must report the same guest PC whether
// the block ran as compiled or through the binary encoding: the codec
// VerifyEncoding executes keeps every GuestPC.
func TestVerifyEncodingKeepsFaultPC(t *testing.T) {
	// The load strides 512 KiB per iteration until it leaves guest
	// memory, long after the loop was translated.
	src := `
	.data
buf:	.dword 0
	.text
main:
	la t2, buf
	li t3, 0x80000
loop:
	addi s2, s2, 3
	addi s2, s2, 5
	ld t0, 0(t2)
	add t2, t2, t3
	j loop
`
	plain, _ := runForFault(t, src, nil, DefaultConfig())
	cfg := DefaultConfig()
	cfg.VerifyEncoding = true
	encoded, m := runForFault(t, src, nil, cfg)
	if plain.Block == 0 {
		t.Fatalf("fault was raised outside translated code: %v", plain)
	}
	if plain.PC != 0x10014 {
		t.Fatalf("plain run faulted at pc=%#x, want 0x10014", plain.PC)
	}
	if encoded.PC != plain.PC || encoded.Block != plain.Block || encoded.Kind != plain.Kind {
		t.Errorf("encoded run faulted as %v, plain run as %v", encoded, plain)
	}
	if m.stats.CompileErrs != 0 {
		t.Fatalf("encode round trip failed %d times", m.stats.CompileErrs)
	}
}
