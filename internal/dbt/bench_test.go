package dbt

import (
	"testing"

	"ghostbusters/internal/riscv"
)

// interpLoopSrc is a tight interpreted loop: every instruction goes
// through fetch+decode (or the predecode table), so the pair of
// sub-benchmarks below isolates exactly what the side table buys.
const interpLoopSrc = `
main:
	li s1, 0
	li s2, 0
loop:
	add s2, s2, s1
	xor s3, s2, s1
	slli s4, s3, 3
	srli s5, s4, 2
	addi s1, s1, 1
	li t0, 5000
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`

func benchInterp(b *testing.B, disablePredecode bool) {
	p := riscv.MustAssemble(interpLoopSrc)
	cfg := DefaultConfig()
	cfg.DisableTranslation = true
	cfg.DisablePredecode = disablePredecode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(p); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	b.Run("predecode", func(b *testing.B) { benchInterp(b, false) })
	b.Run("no-predecode", func(b *testing.B) { benchInterp(b, true) })
}

// BenchmarkMachineSteadyState measures the whole machine on a hot loop
// that translates to a trace: dispatch, Exec and the timed cache path,
// with the guest image reused from the spare list each iteration.
func BenchmarkMachineSteadyState(b *testing.B) {
	src := `
main:
	li s1, 0
	li s2, 0
	li s4, 0x20000
loop:
	ld s3, 0(s4)
	add s2, s2, s3
	sd s2, 8(s4)
	addi s1, s1, 1
	li t0, 20000
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`
	p := riscv.MustAssemble(src)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(p); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}
