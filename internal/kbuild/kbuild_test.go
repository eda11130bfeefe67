package kbuild_test

import (
	"strings"
	"testing"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/riscv"
)

// runKernel assembles a generated kernel, initialises its arrays, runs
// it on the machine and returns the final array contents.
func runKernel(t *testing.T, b *kbuild.Builder, init map[string][]int64) map[string][]int64 {
	t.Helper()
	src, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := riscv.Assemble(src)
	if err != nil {
		t.Fatalf("generated source does not assemble: %v\n%s", err, src)
	}
	m, err := dbt.New(dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	pls, err := kbuild.Resolve(prog, b.Arrays())
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range pls {
		vals := init[pl.Arr.Name]
		if vals == nil {
			vals = make([]int64, pl.Arr.Elems())
		}
		if err := pl.Init(m.Mem(), vals); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit.Code != 0 {
		t.Fatalf("kernel exited %d", res.Exit.Code)
	}
	out := map[string][]int64{}
	for _, pl := range pls {
		v, err := pl.Read(m.Mem())
		if err != nil {
			t.Fatal(err)
		}
		out[pl.Arr.Name] = v
	}
	return out
}

func TestVectorAdd(t *testing.T) {
	b := kbuild.New("vadd")
	A := b.Array("A", 16)
	B2 := b.Array("B", 16)
	C := b.Array("C", 16)
	bA, bB, bC := b.BasePtr(A), b.BasePtr(B2), b.BasePtr(C)
	b.For(0, 16, func(i kbuild.Var) {
		b.Store(C, bC, b.Add(b.Load(A, bA, i), b.Load(B2, bB, i)), i)
	})
	av := make([]int64, 16)
	bv := make([]int64, 16)
	for i := range av {
		av[i], bv[i] = int64(i), int64(100*i)
	}
	out := runKernel(t, b, map[string][]int64{"A": av, "B": bv})
	for i, c := range out["C"] {
		if want := int64(i + 100*i); c != want {
			t.Fatalf("C[%d] = %d, want %d", i, c, want)
		}
	}
}

func Test2DFlatIndexing(t *testing.T) {
	b := kbuild.New("t2d")
	M := b.Array2D("M", 5, 7)
	bM := b.BasePtr(M)
	b.For(0, 5, func(i kbuild.Var) {
		b.For(0, 7, func(j kbuild.Var) {
			v := b.Add(b.Mul(i, 100), j)
			b.Store(M, bM, v, i, j)
		})
	})
	out := runKernel(t, b, nil)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if got, want := out["M"][i*7+j], int64(100*i+j); got != want {
				t.Fatalf("M[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestPtrLayoutIndexing(t *testing.T) {
	b := kbuild.New("tptr")
	M := b.Array2DPtr("M", 4, 4)
	O := b.Array("O", 16)
	bM, bO := b.BasePtr(M), b.BasePtr(O)
	idx := b.Local(0)
	b.For(0, 4, func(i kbuild.Var) {
		b.For(0, 4, func(j kbuild.Var) {
			b.Store(O, bO, b.Load(M, bM, i, j), idx)
			b.Set(idx, b.Add(idx, 1))
		})
	})
	in := make([]int64, 16)
	for i := range in {
		in[i] = int64(i * 3)
	}
	out := runKernel(t, b, map[string][]int64{"M": in})
	for i := range in {
		if out["O"][i] != in[i] {
			t.Fatalf("O[%d] = %d, want %d", i, out["O"][i], in[i])
		}
	}
}

func TestTriangularLoop(t *testing.T) {
	b := kbuild.New("tri")
	C := b.Array("C", 8)
	bC := b.BasePtr(C)
	cnt := b.Local(0)
	b.For(0, 8, func(i kbuild.Var) {
		b.Set(cnt, 0)
		b.For(0, i, func(j kbuild.Var) {
			b.Set(cnt, b.Add(cnt, 1))
		})
		b.Store(C, bC, cnt, i)
	})
	out := runKernel(t, b, nil)
	for i, v := range out["C"] {
		if v != int64(i) {
			t.Fatalf("C[%d] = %d, want %d (triangular bound)", i, v, i)
		}
	}
}

func TestMinBranchless(t *testing.T) {
	b := kbuild.New("tmin")
	A := b.Array("A", 8)
	B2 := b.Array("B", 8)
	C := b.Array("C", 8)
	bA, bB, bC := b.BasePtr(A), b.BasePtr(B2), b.BasePtr(C)
	b.For(0, 8, func(i kbuild.Var) {
		b.Store(C, bC, b.Min(b.Load(A, bA, i), b.Load(B2, bB, i)), i)
	})
	av := []int64{-5, 3, 7, -100, 0, 42, 9, -9}
	bv := []int64{5, -3, 7, 100, 1, -42, 10, -8}
	out := runKernel(t, b, map[string][]int64{"A": av, "B": bv})
	for i := range av {
		want := av[i]
		if bv[i] < want {
			want = bv[i]
		}
		if out["C"][i] != want {
			t.Fatalf("min(%d,%d) = %d, want %d", av[i], bv[i], out["C"][i], want)
		}
	}
}

func TestArithmeticOps(t *testing.T) {
	b := kbuild.New("tops")
	C := b.Array("C", 8)
	bC := b.BasePtr(C)
	x := b.Local(21)
	b.Store(C, bC, b.Add(x, 4), 0)
	b.Store(C, bC, b.Sub(x, 4), 1)
	b.Store(C, bC, b.Mul(x, 3), 2)
	b.Store(C, bC, b.Div(x, 4), 3)
	b.Store(C, bC, b.And(x, 12), 4)
	b.Store(C, bC, b.Or(x, 8), 5)
	b.Store(C, bC, b.Xor(x, 1), 6)
	b.Store(C, bC, b.Shr(b.Mul(x, 4), 3), 7)
	out := runKernel(t, b, nil)
	want := []int64{25, 17, 63, 5, 4, 29, 20, 10}
	for i, w := range want {
		if out["C"][i] != w {
			t.Fatalf("C[%d] = %d, want %d", i, out["C"][i], w)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	// Out of locals.
	b := kbuild.New("toom")
	for i := 0; i < 13; i++ {
		b.Local(0)
	}
	if _, err := b.Program(); err == nil {
		t.Error("local exhaustion not reported")
	}
	// Wrong index arity.
	b2 := kbuild.New("tarity")
	A := b2.Array2D("A", 4, 4)
	bA := b2.BasePtr(A)
	v := b2.Load(A, bA, 0) // needs two indices
	_ = v
	if _, err := b2.Program(); err == nil {
		t.Error("index arity error not reported")
	}
	// Bad For bound type.
	b3 := kbuild.New("tbound")
	b3.For(0, "nope", func(kbuild.Var) {})
	if _, err := b3.Program(); err == nil {
		t.Error("bad bound type not reported")
	}
}

func TestHostInitErrors(t *testing.T) {
	b := kbuild.New("thost")
	A := b.Array("A", 4)
	src, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog := riscv.MustAssemble(src)
	m, _ := dbt.New(dbt.DefaultConfig())
	_ = m.Load(prog)
	pls, err := kbuild.Resolve(prog, []*kbuild.Array{A})
	if err != nil {
		t.Fatal(err)
	}
	if err := pls[0].Init(m.Mem(), make([]int64, 3)); err == nil {
		t.Error("wrong length accepted")
	}
	ghost := &kbuild.Array{Name: "nope", Rows: 1, Cols: 1}
	if _, err := kbuild.Resolve(prog, []*kbuild.Array{A, ghost}); err == nil {
		t.Error("missing symbol accepted")
	}
	// A placement Resolve never produced points below guest memory: it
	// fails on init and on read alike.
	unplaced := kbuild.Placement{Arr: ghost}
	if err := unplaced.Init(m.Mem(), make([]int64, 1)); err == nil {
		t.Error("missing symbol accepted on init")
	}
	if _, err := unplaced.Read(m.Mem()); err == nil {
		t.Error("missing symbol accepted on read")
	}
}

// TestPlacementMismatch checks the in-place output comparison: it finds
// the first differing element, reports none on a match, and rejects a
// reference of the wrong length.
func TestPlacementMismatch(t *testing.T) {
	b := kbuild.New("tmismatch")
	A := b.Array("A", 4)
	src, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog := riscv.MustAssemble(src)
	m, err := dbt.New(dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	pl, err := kbuild.Resolve(prog, []*kbuild.Array{A})
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{7, -1, 9, 4}
	if err := pl[0].Init(m.Mem(), vals); err != nil {
		t.Fatal(err)
	}
	if i, _, err := pl[0].Mismatch(m.Mem(), vals); err != nil || i != -1 {
		t.Fatalf("Mismatch of equal contents = %d, %v; want -1, nil", i, err)
	}
	if i, got, err := pl[0].Mismatch(m.Mem(), []int64{7, -1, 8, 5}); err != nil || i != 2 || got != 9 {
		t.Fatalf("Mismatch = %d, %d, %v; want 2, 9, nil", i, got, err)
	}
	for _, ref := range [][]int64{nil, vals[:3], append(vals[:4:4], 0)} {
		if _, _, err := pl[0].Mismatch(m.Mem(), ref); err == nil {
			t.Errorf("a reference of %d values for 4 elements accepted", len(ref))
		}
	}
}

func TestGeneratedSourceShape(t *testing.T) {
	b := kbuild.New("tshape")
	b.Array("A", 4)
	b.Array2DPtr("P", 2, 2)
	src, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{".data", "A:\t.space 32", "P_rows:", "P_data:", "main:", "ecall"} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q:\n%s", want, src)
		}
	}
}

func TestMaxBranchless(t *testing.T) {
	b := kbuild.New("tmax")
	A := b.Array("A", 8)
	B2 := b.Array("B", 8)
	C := b.Array("C", 8)
	bA, bB, bC := b.BasePtr(A), b.BasePtr(B2), b.BasePtr(C)
	b.For(0, 8, func(i kbuild.Var) {
		b.Store(C, bC, b.Max(b.Load(A, bA, i), b.Load(B2, bB, i)), i)
	})
	av := []int64{-5, 3, 7, -100, 0, 42, 9, -9}
	bv := []int64{5, -3, 7, 100, 1, -42, 10, -8}
	out := runKernel(t, b, map[string][]int64{"A": av, "B": bv})
	for i := range av {
		want := av[i]
		if bv[i] > want {
			want = bv[i]
		}
		if out["C"][i] != want {
			t.Fatalf("max(%d,%d) = %d, want %d", av[i], bv[i], out["C"][i], want)
		}
	}
}
