package dbt_test

import (
	"reflect"
	"sort"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
)

// A machine compiles every region through one reused builder, visited
// set, analysis and scheduling graph. This differential test takes every
// region the Figure 4 kernels (n=8) and both PoCs translate under each
// Figure 4 mode, in every shape it was translated in, and compiles it
// through the machine's reused memory — grown first on the machine's
// largest region — and through fresh memory: the mitigated IR and the
// VLIW block must be equal, so no reused table may carry anything of an
// earlier region.
func TestCompileReusedMemoryMatchesFresh(t *testing.T) {
	type program struct {
		name string
		load func(t *testing.T, m *dbt.Machine)
	}
	var progs []program
	for _, k := range polybench.All() {
		spec, err := k.Make(8)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		prog := riscv.MustAssemble(spec.Source)
		place, err := kbuild.Resolve(prog, spec.Arrays)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		progs = append(progs, program{k.Name, func(t *testing.T, m *dbt.Machine) {
			if err := m.Load(prog); err != nil {
				t.Fatal(err)
			}
			for i, a := range spec.Arrays {
				if err := place[i].Init(m.Mem(), spec.Inputs[a.Name]); err != nil {
					t.Fatal(err)
				}
			}
		}})
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		src, err := attack.Source(v, dbt.DefaultConfig(), attack.Params{Secret: []byte{0x6B, 0xD4}})
		if err != nil {
			t.Fatal(err)
		}
		prog := riscv.MustAssemble(src)
		progs = append(progs, program{v.String(), func(t *testing.T, m *dbt.Machine) {
			if err := m.Load(prog); err != nil {
				t.Fatal(err)
			}
		}})
	}

	type shape struct {
		pc         uint64
		trace      bool
		guestInsts int
	}
	compiled := 0
	for _, mode := range core.Fig4Modes() {
		for _, p := range progs {
			cfg := dbt.DefaultConfig()
			cfg.Mitigation = mode
			m, err := dbt.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.load(t, m)
			if _, err := m.Run(); err != nil {
				t.Fatalf("%s/%s: %v", p.name, mode, err)
			}
			// Every shape a region was translated in: an installed trace
			// replaced its first-pass block.
			var shapes []shape
			for _, r := range m.ProfileReport() {
				shapes = append(shapes, shape{r.PC, false, r.GuestInsts})
				if r.IsTrace {
					shapes = append(shapes, shape{r.PC, true, r.GuestInsts})
				}
			}
			if len(shapes) == 0 {
				t.Fatalf("%s/%s: no region translated", p.name, mode)
			}
			sort.SliceStable(shapes, func(i, j int) bool { return shapes[i].guestInsts > shapes[j].guestInsts })
			if _, _, err := m.CompileRegion(shapes[0].pc, shapes[0].trace, false); err != nil {
				t.Fatalf("%s/%s: %v", p.name, mode, err)
			}
			for _, s := range shapes {
				b, blk, err := m.CompileRegion(s.pc, s.trace, false)
				if err != nil {
					t.Fatalf("%s/%s: region %+v through reused memory: %v", p.name, mode, s, err)
				}
				reusedIR := cloneIR(b) // the next compile overwrites b
				b, want, err := m.CompileRegion(s.pc, s.trace, true)
				if err != nil {
					t.Fatalf("%s/%s: region %+v through fresh memory: %v", p.name, mode, s, err)
				}
				if freshIR := cloneIR(b); !reflect.DeepEqual(reusedIR, freshIR) {
					t.Fatalf("%s/%s: region %+v: reused memory changed the IR\nfresh:\n%s\nreused:\n%s",
						p.name, mode, s, freshIR, reusedIR)
				}
				if !reflect.DeepEqual(blk, want) {
					t.Fatalf("%s/%s: region %+v: reused memory changed the block\nfresh:\n%s\nreused:\n%s",
						p.name, mode, s, want, blk)
				}
				compiled++
			}
			m.Release()
		}
	}
	t.Logf("%d region compilations matched", compiled)
}

// cloneIR deep-copies a block, an empty list copied as nil, so that two
// blocks built in different memory compare by content alone.
func cloneIR(b *ir.Block) *ir.Block {
	cp := *b
	cp.Insts = append([]ir.Inst(nil), b.Insts...)
	cp.Edges = append([]ir.Edge(nil), b.Edges...)
	return &cp
}
