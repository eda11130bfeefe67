package ghostbusters_test

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md section 6 and EXPERIMENTS.md):
//
//	BenchmarkE1_*        Section V-A proof-of-concept matrix
//	BenchmarkFig4_*      Figure 4 slowdown comparison (also covers the
//	                     fence variant, the paper's third experiment, E3)
//	BenchmarkE4_*        Section V-B pointer-layout matmul
//	BenchmarkAblation_*  design-choice ablations
//
// Wall-clock time measures the simulator; the experiment's real metric
// is simulated guest cycles, reported as "guest-cycles/op". Every
// benchmark also validates architectural results (kernels against their
// Go references, attacks against the planted secret), so the benchmark
// suite doubles as an end-to-end test.

import (
	"context"
	"fmt"
	"testing"

	"ghostbusters"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/oo7scan"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/vliw"
)

var benchModes = []core.Mode{
	core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation,
}

// --- E1: proof-of-concept attacks ---------------------------------------

func benchAttack(b *testing.B, v ghostbusters.AttackVariant, mode core.Mode) {
	b.Helper()
	cfg := ghostbusters.WithMitigation(ghostbusters.DefaultConfig(), mode)
	secret := []byte{0x6B, 0xD4}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := ghostbusters.RunAttack(v, cfg, ghostbusters.AttackParams{Secret: secret})
		if err != nil {
			b.Fatal(err)
		}
		leaked := res.Success()
		if mode == core.ModeUnsafe && !leaked {
			b.Fatalf("E1: %s under unsafe did not leak", v)
		}
		if mode != core.ModeUnsafe && res.BytesCorrect != 0 {
			b.Fatalf("E1: %s leaked %d bytes under %s", v, res.BytesCorrect, mode)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "guest-cycles/op")
}

func BenchmarkE1_SpectreV1(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.String(), func(b *testing.B) {
			benchAttack(b, ghostbusters.SpectreV1, mode)
		})
	}
}

func BenchmarkE1_SpectreV4(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.String(), func(b *testing.B) {
			benchAttack(b, ghostbusters.SpectreV4, mode)
		})
	}
}

// --- Figure 4 (and E3, the fence variant) -------------------------------

// benchArts memoizes generated and assembled kernels across the whole
// benchmark suite, so iterations measure the simulator rather than the
// assembler (the artifact cache the parallel Runner shares between jobs).
var benchArts = harness.NewArtifacts()

func benchKernel(b *testing.B, name string, n int, mode core.Mode) {
	b.Helper()
	k, err := polybench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = mode
	bench := harness.KernelBench(k, n)
	var cycles uint64
	for i := 0; i < b.N; i++ {
		// Validates against the Go reference on every run.
		run, err := bench.Run(context.Background(), cfg, benchArts)
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.Cycles
	}
	b.ReportMetric(float64(cycles), "guest-cycles/op")
}

// The whole Figure 4 matrix through the parallel Runner at a reduced
// size: the wall clock of the experiment harness itself, per worker
// count (compare -j 1 vs GOMAXPROCS). One shared artifact set and one
// shared in-memory translation cache serve every iteration, with a
// warm-up sweep before the clock starts: the benchmark measures the
// execution backend in steady state — chained dispatch of cached
// translations — not the assembler or the DBT compiler. (Results stay
// bit-identical either way; the differential tests assert it.)
func BenchmarkFig4Matrix(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("j%d", workers)
		if workers == 0 {
			name = "jMax"
		}
		b.Run(name, func(b *testing.B) {
			arts := harness.NewArtifacts()
			tc := tcache.New("")
			sweep := func() {
				r := &harness.Runner{Workers: workers, Artifacts: arts, TransCache: tc}
				rows, err := r.Fig4(context.Background(), dbt.DefaultConfig(), benchModes, 8)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(polybench.All())+2 {
					b.Fatalf("matrix returned %d rows", len(rows))
				}
			}
			sweep() // warm the artifact and translation caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
		})
	}
}

// The Figure 4 matrix with no translation cache: every cell translates
// its regions, so the DBT compiler (front end, mitigation passes,
// scheduler and codegen) runs on every iteration next to execution.
// Only the artifact cache is warmed before the clock starts.
func BenchmarkFig4MatrixCold(b *testing.B) {
	b.Run("j1", func(b *testing.B) {
		arts := harness.NewArtifacts()
		sweep := func() {
			r := &harness.Runner{Workers: 1, Artifacts: arts}
			rows, err := r.Fig4(context.Background(), dbt.DefaultConfig(), benchModes, 8)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != len(polybench.All())+2 {
				b.Fatalf("matrix returned %d rows", len(rows))
			}
		}
		sweep() // warm the artifact cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	})
}

func BenchmarkFig4(b *testing.B) {
	for _, k := range polybench.All() {
		for _, mode := range benchModes {
			b.Run(fmt.Sprintf("%s/%s", k.Name, mode), func(b *testing.B) {
				benchKernel(b, k.Name, 0, mode)
			})
		}
	}
}

// --- E4: matmul with array-of-pointer 2-D layout -------------------------

func BenchmarkE4_MatmulPtr(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.String(), func(b *testing.B) {
			benchKernel(b, "matmul-ptr", 0, mode)
		})
	}
}

// --- Ablations (DESIGN.md section 8) -------------------------------------

// Issue width: how the NoSpeculation penalty scales with machine width.
func BenchmarkAblation_IssueWidth(b *testing.B) {
	widths := map[string]vliw.Config{
		"2wide": vliw.NarrowConfig(),
		"4wide": vliw.DefaultConfig(),
		"8wide": vliw.WideConfig(),
	}
	for wname, wcfg := range widths {
		for _, mode := range []core.Mode{core.ModeUnsafe, core.ModeNoSpeculation} {
			b.Run(fmt.Sprintf("%s/%s", wname, mode), func(b *testing.B) {
				cfg := dbt.DefaultConfig()
				cfg.Core = wcfg
				cfg.Mitigation = mode
				k, _ := polybench.ByName("gemm")
				var cycles uint64
				for i := 0; i < b.N; i++ {
					spec, err := k.Make(k.DefaultN)
					if err != nil {
						b.Fatal(err)
					}
					run, err := harness.RunSpec(spec, cfg)
					if err != nil {
						b.Fatal(err)
					}
					cycles = run.Cycles
				}
				b.ReportMetric(float64(cycles), "guest-cycles/op")
			})
		}
	}
}

// Cache miss penalty: the side-channel margin the attacker measures.
func BenchmarkAblation_MissPenalty(b *testing.B) {
	for _, penalty := range []uint64{8, 20, 50} {
		b.Run(fmt.Sprintf("penalty%d", penalty), func(b *testing.B) {
			cfg := ghostbusters.DefaultConfig()
			cfg.Cache.MissPenalty = penalty
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := ghostbusters.RunAttack(ghostbusters.SpectreV1, cfg,
					ghostbusters.AttackParams{Secret: []byte{0x3C}})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Success() {
					b.Fatalf("attack failed with miss penalty %d", penalty)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles/op")
		})
	}
}

// Trace length / unrolling: the speculation window the DBT engine builds.
func BenchmarkAblation_TraceLen(b *testing.B) {
	type variant struct {
		insts, unroll int
	}
	for name, v := range map[string]variant{
		"short16x1": {16, 1},
		"mid32x2":   {32, 2},
		"full48x4":  {48, 4},
	} {
		for _, mode := range []core.Mode{core.ModeUnsafe, core.ModeNoSpeculation} {
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				cfg := dbt.DefaultConfig()
				cfg.MaxTraceInsts = v.insts
				cfg.MaxUnroll = v.unroll
				cfg.Mitigation = mode
				k, _ := polybench.ByName("gemm")
				var cycles uint64
				for i := 0; i < b.N; i++ {
					spec, err := k.Make(k.DefaultN)
					if err != nil {
						b.Fatal(err)
					}
					run, err := harness.RunSpec(spec, cfg)
					if err != nil {
						b.Fatal(err)
					}
					cycles = run.Cycles
				}
				b.ReportMetric(float64(cycles), "guest-cycles/op")
			})
		}
	}
}

// Poison analysis cost: pure host-side analysis throughput per block
// (the paper argues the analysis is cheap because it is block-local).
func BenchmarkAblation_PoisonAnalysis(b *testing.B) {
	// A representative block: Spectre v4 shape with a longer ALU chain.
	build := func() *ir.Block {
		bu := ir.NewBuilder(0)
		n0 := bu.Emit(ir.Inst{Op: riscv.MUL, A: ir.RegIn(5), B: ir.RegIn(6), DestArch: 7})
		bu.Emit(ir.Inst{Op: riscv.SD, A: ir.RegIn(8), B: ir.FromInst(n0), DestArch: -1})
		cur := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(9), DestArch: 10})
		for i := 0; i < 24; i++ {
			cur = bu.Emit(ir.Inst{Op: riscv.XORI, A: ir.FromInst(cur), Imm: int64(i), DestArch: 10})
		}
		bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(cur), DestArch: 11})
		return bu.Block()
	}
	blk := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Analyze(blk)
		if !rep.PatternFound() {
			b.Fatal("pattern not found")
		}
	}
}

// Cache model throughput (the innermost simulator primitive).
func BenchmarkAblation_CacheAccess(b *testing.B) {
	c := cache.MustNew(cache.DefaultConfig())
	var lat uint64
	for i := 0; i < b.N; i++ {
		l, _ := c.Access(uint64(i*64) & (1<<20 - 1))
		lat += l
	}
	_ = lat
}

// End-to-end simulator speed: guest instructions per host second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	src := `
main:
	li s1, 0
	li s2, 0
loop:
	add s2, s2, s1
	addi s1, s1, 1
	li t0, 20000
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`
	prog, err := ghostbusters.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	var instret uint64
	for i := 0; i < b.N; i++ {
		m, err := ghostbusters.NewMachine(ghostbusters.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		instret = res.Instret
	}
	b.ReportMetric(float64(instret), "guest-insts/op")
}

// oo7-style whole-binary analysis vs the block-local GhostBusters
// analysis: the cost comparison of the paper's Section VI.
func BenchmarkAblation_OO7WholeBinary(b *testing.B) {
	spec, err := polybench.MakeGemm(12)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := riscv.Assemble(spec.Source)
	if err != nil {
		b.Fatal(err)
	}
	var visited int
	for i := 0; i < b.N; i++ {
		rep, err := oo7scan.Scan(prog, oo7scan.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		visited = rep.InstsVisited
	}
	b.ReportMetric(float64(visited), "insts-visited/op")
}
