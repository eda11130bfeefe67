// Package polybench provides the data-intensive integer loop kernels the
// evaluation runs under the different mitigation modes (the paper bases
// its Figure 4 on Polybench, "because DBT processors are more efficient
// on data-intensive applications"). Every kernel is generated as rv64im
// assembly by the kbuild DSL and paired with a native Go reference
// implementation, so each benchmark run is also a correctness check of
// the whole DBT pipeline.
//
// rv64im has no floating point, so the kernels are the integer variants
// of the same loop nests (DESIGN.md documents the substitution).
package polybench

import (
	"fmt"

	"ghostbusters/internal/kbuild"
)

// Spec is a fully-instantiated kernel: assembly source, initial data,
// and the reference results to validate against. A Spec is read-only
// after Make returns — the harness shares one Spec between concurrently
// running machines, so callers must not mutate it.
type Spec struct {
	Name     string
	N        int
	Source   string
	Arrays   []*kbuild.Array
	Inputs   map[string][]int64
	Outputs  []string
	Expected map[string][]int64
}

// Kernel is a kernel generator at a choosable size.
type Kernel struct {
	Name     string
	DefaultN int
	Make     func(n int) (*Spec, error)
}

// All returns the benchmark suite in Figure 4 order.
func All() []Kernel {
	return []Kernel{
		{"gemm", 20, MakeGemm},
		{"2mm", 16, Make2mm},
		{"3mm", 14, Make3mm},
		{"atax", 48, MakeAtax},
		{"bicg", 48, MakeBicg},
		{"mvt", 48, MakeMvt},
		{"gesummv", 40, MakeGesummv},
		{"gemver", 40, MakeGemver},
		{"syrk", 18, MakeSyrk},
		{"syr2k", 16, MakeSyr2k},
		{"trmm", 20, MakeTrmm},
		{"doitgen", 12, MakeDoitgen},
		{"trisolv", 48, MakeTrisolv},
		{"durbin", 32, MakeDurbin},
		{"floyd-warshall", 14, MakeFloydWarshall},
		{"nussinov", 24, MakeNussinov},
		{"jacobi-1d", 400, MakeJacobi1D},
		{"jacobi-2d", 28, MakeJacobi2D},
		{"seidel-2d", 28, MakeSeidel2D},
	}
}

// ByName returns the kernel generator with the given name.
func ByName(name string) (Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	if name == "matmul-ptr" {
		return Kernel{"matmul-ptr", 20, MakeMatmulPtr}, nil
	}
	return Kernel{}, fmt.Errorf("polybench: unknown kernel %q", name)
}

// fill produces deterministic small input values: reproducible across
// the guest and the reference, bounded to keep products readable.
func fill(name string, n int) []int64 {
	out := make([]int64, n)
	h := int64(0)
	for _, c := range name {
		h = h*31 + int64(c)
	}
	for i := range out {
		out[i] = (h+int64(i)*7)%19 - 9
	}
	return out
}

// finish assembles the spec: generate source, snapshot inputs, run the
// reference to compute expected outputs.
func finish(name string, n int, b *kbuild.Builder, inputs map[string][]int64, outputs []string, ref func(map[string][]int64)) (*Spec, error) {
	src, err := b.Program()
	if err != nil {
		return nil, err
	}
	// The reference mutates a deep copy of the inputs in place.
	work := make(map[string][]int64, len(inputs))
	for k, v := range inputs {
		cp := make([]int64, len(v))
		copy(cp, v)
		work[k] = cp
	}
	ref(work)
	expected := make(map[string][]int64, len(outputs))
	for _, o := range outputs {
		expected[o] = work[o]
	}
	return &Spec{
		Name: name, N: n, Source: src,
		Arrays: b.Arrays(), Inputs: inputs,
		Outputs: outputs, Expected: expected,
	}, nil
}

const (
	alpha = 2
	beta  = 3
)

// MakeGemm builds C = beta*C + alpha*A*B.
func MakeGemm(n int) (*Spec, error) { return makeGemmLayout("gemm", n, false) }

// MakeMatmulPtr is the paper's modified matrix multiplication: 2-D
// arrays represented as arrays of row pointers, so every access is a
// double indirection and the Spectre pattern occurs in the hot loop
// (Section V-B, last experiment). The kernel is the textbook ikj
// form with C[i][j] accumulated in memory: the inner loop stores to C
// through one double indirection while loading B and C through others,
// so the row-pointer loads are speculated above the store (poisoned)
// and the element loads become the risky accesses.
func MakeMatmulPtr(n int) (*Spec, error) {
	name := "matmul_ptr"
	b := kbuild.New(name)
	A := b.Array2DPtr("A", n, n)
	B2 := b.Array2DPtr("B", n, n)
	C := b.Array2DPtr("C", n, n)
	bA, bB, bC := b.BasePtr(A), b.BasePtr(B2), b.BasePtr(C)
	av := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Store(C, bC, b.Mul(b.Load(C, bC, i, j), beta), i, j)
		})
		b.For(0, n, func(k kbuild.Var) {
			b.Set(av, b.Mul(b.Load(A, bA, i, k), alpha))
			b.For(0, n, func(j kbuild.Var) {
				t := b.Mul(av, b.Load(B2, bB, k, j))
				b.Store(C, bC, b.Add(b.Load(C, bC, i, j), t), i, j)
			})
		})
	})
	in := map[string][]int64{
		"A": fill(name+"A", n*n), "B": fill(name+"B", n*n), "C": fill(name+"C", n*n),
	}
	return finish(name, n, b, in, []string{"C"}, func(m map[string][]int64) {
		a, bb, c := m["A"], m["B"], m["C"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c[i*n+j] *= beta
			}
			for k := 0; k < n; k++ {
				av := a[i*n+k] * alpha
				for j := 0; j < n; j++ {
					c[i*n+j] += av * bb[k*n+j]
				}
			}
		}
	})
}

func makeGemmLayout(name string, n int, ptr bool) (*Spec, error) {
	b := kbuild.New(name)
	mk := b.Array2D
	if ptr {
		mk = b.Array2DPtr
	}
	A := mk("A", n, n)
	B := mk("B", n, n)
	C := mk("C", n, n)
	bA, bB, bC := b.BasePtr(A), b.BasePtr(B), b.BasePtr(C)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Set(acc, b.Mul(b.Load(C, bC, i, j), beta))
			b.For(0, n, func(k kbuild.Var) {
				t := b.Mul(b.Load(A, bA, i, k), b.Load(B, bB, k, j))
				b.AddTo(acc, b.Mul(t, alpha))
			})
			b.Store(C, bC, acc, i, j)
		})
	})
	in := map[string][]int64{
		"A": fill(name+"A", n*n), "B": fill(name+"B", n*n), "C": fill(name+"C", n*n),
	}
	return finish(name, n, b, in, []string{"C"}, func(m map[string][]int64) {
		a, bb, c := m["A"], m["B"], m["C"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := c[i*n+j] * beta
				for k := 0; k < n; k++ {
					acc += alpha * a[i*n+k] * bb[k*n+j]
				}
				c[i*n+j] = acc
			}
		}
	})
}

// Make2mm builds tmp = alpha*A*B, then D = tmp*C + beta*D.
func Make2mm(n int) (*Spec, error) {
	b := kbuild.New("k2mm")
	A := b.Array2D("A", n, n)
	B := b.Array2D("B", n, n)
	C := b.Array2D("C", n, n)
	D := b.Array2D("D", n, n)
	T := b.Array2D("T", n, n)
	acc := b.Local(0)

	bA, bB, bT := b.BasePtr(A), b.BasePtr(B), b.BasePtr(T)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Set(acc, 0)
			b.For(0, n, func(k kbuild.Var) {
				t := b.Mul(b.Load(A, bA, i, k), b.Load(B, bB, k, j))
				b.AddTo(acc, b.Mul(t, alpha))
			})
			b.Store(T, bT, acc, i, j)
		})
	})
	b.Free(bA)
	b.Free(bB)
	bC, bD := b.BasePtr(C), b.BasePtr(D)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Set(acc, b.Mul(b.Load(D, bD, i, j), beta))
			b.For(0, n, func(k kbuild.Var) {
				b.AddTo(acc, b.Mul(b.Load(T, bT, i, k), b.Load(C, bC, k, j)))
			})
			b.Store(D, bD, acc, i, j)
		})
	})
	in := map[string][]int64{
		"A": fill("2mmA", n*n), "B": fill("2mmB", n*n),
		"C": fill("2mmC", n*n), "D": fill("2mmD", n*n),
		"T": make([]int64, n*n),
	}
	return finish("2mm", n, b, in, []string{"D", "T"}, func(m map[string][]int64) {
		a, bb, c, d, tmp := m["A"], m["B"], m["C"], m["D"], m["T"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := int64(0)
				for k := 0; k < n; k++ {
					acc += alpha * a[i*n+k] * bb[k*n+j]
				}
				tmp[i*n+j] = acc
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := d[i*n+j] * beta
				for k := 0; k < n; k++ {
					acc += tmp[i*n+k] * c[k*n+j]
				}
				d[i*n+j] = acc
			}
		}
	})
}

// Make3mm builds E = A*B, F = C*D, G = E*F.
func Make3mm(n int) (*Spec, error) {
	b := kbuild.New("k3mm")
	A := b.Array2D("A", n, n)
	B := b.Array2D("B", n, n)
	C := b.Array2D("C", n, n)
	D := b.Array2D("D", n, n)
	E := b.Array2D("E", n, n)
	F := b.Array2D("F", n, n)
	G := b.Array2D("G", n, n)
	acc := b.Local(0)

	mm := func(x, y, z *kbuild.Array) {
		bx, by, bz := b.BasePtr(x), b.BasePtr(y), b.BasePtr(z)
		b.For(0, n, func(i kbuild.Var) {
			b.For(0, n, func(j kbuild.Var) {
				b.Set(acc, 0)
				b.For(0, n, func(k kbuild.Var) {
					b.AddTo(acc, b.Mul(b.Load(x, bx, i, k), b.Load(y, by, k, j)))
				})
				b.Store(z, bz, acc, i, j)
			})
		})
		b.Free(bx)
		b.Free(by)
		b.Free(bz)
	}
	mm(A, B, E)
	mm(C, D, F)
	mm(E, F, G)
	in := map[string][]int64{
		"A": fill("3mmA", n*n), "B": fill("3mmB", n*n),
		"C": fill("3mmC", n*n), "D": fill("3mmD", n*n),
		"E": make([]int64, n*n), "F": make([]int64, n*n), "G": make([]int64, n*n),
	}
	return finish("3mm", n, b, in, []string{"G"}, func(m map[string][]int64) {
		mulRef := func(x, y, z []int64) {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					acc := int64(0)
					for k := 0; k < n; k++ {
						acc += x[i*n+k] * y[k*n+j]
					}
					z[i*n+j] = acc
				}
			}
		}
		mulRef(m["A"], m["B"], m["E"])
		mulRef(m["C"], m["D"], m["F"])
		mulRef(m["E"], m["F"], m["G"])
	})
}

// MakeAtax builds y = A^T (A x).
func MakeAtax(n int) (*Spec, error) {
	b := kbuild.New("atax")
	A := b.Array2D("A", n, n)
	X := b.Array("X", n)
	Y := b.Array("Y", n)
	T := b.Array("T", n)
	bA, bX, bY, bT := b.BasePtr(A), b.BasePtr(X), b.BasePtr(Y), b.BasePtr(T)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.Set(acc, 0)
		b.For(0, n, func(j kbuild.Var) {
			b.AddTo(acc, b.Mul(b.Load(A, bA, i, j), b.Load(X, bX, j)))
		})
		b.Store(T, bT, acc, i)
		b.For(0, n, func(j kbuild.Var) {
			t := b.Add(b.Load(Y, bY, j), b.Mul(b.Load(A, bA, i, j), acc))
			b.Store(Y, bY, t, j)
		})
	})
	in := map[string][]int64{
		"A": fill("ataxA", n*n), "X": fill("ataxX", n),
		"Y": make([]int64, n), "T": make([]int64, n),
	}
	return finish("atax", n, b, in, []string{"Y", "T"}, func(m map[string][]int64) {
		a, x, y, tmp := m["A"], m["X"], m["Y"], m["T"]
		for i := 0; i < n; i++ {
			acc := int64(0)
			for j := 0; j < n; j++ {
				acc += a[i*n+j] * x[j]
			}
			tmp[i] = acc
			for j := 0; j < n; j++ {
				y[j] += a[i*n+j] * acc
			}
		}
	})
}

// MakeBicg builds s = A^T r and q = A p.
func MakeBicg(n int) (*Spec, error) {
	b := kbuild.New("bicg")
	A := b.Array2D("A", n, n)
	S := b.Array("S", n)
	Q := b.Array("Q", n)
	P := b.Array("P", n)
	R := b.Array("R", n)
	bA, bS, bQ, bP, bR := b.BasePtr(A), b.BasePtr(S), b.BasePtr(Q), b.BasePtr(P), b.BasePtr(R)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		ri := b.Load(R, bR, i)
		riv := b.Local(0)
		b.Set(riv, ri)
		b.Set(acc, 0)
		b.For(0, n, func(j kbuild.Var) {
			sj := b.Add(b.Load(S, bS, j), b.Mul(riv, b.Load(A, bA, i, j)))
			b.Store(S, bS, sj, j)
			b.AddTo(acc, b.Mul(b.Load(A, bA, i, j), b.Load(P, bP, j)))
		})
		qOld := b.Load(Q, bQ, i)
		b.Store(Q, bQ, b.Add(qOld, acc), i)
		b.Free(riv)
	})
	in := map[string][]int64{
		"A": fill("bicgA", n*n), "P": fill("bicgP", n), "R": fill("bicgR", n),
		"S": make([]int64, n), "Q": make([]int64, n),
	}
	return finish("bicg", n, b, in, []string{"S", "Q"}, func(m map[string][]int64) {
		a, s, q, p, r := m["A"], m["S"], m["Q"], m["P"], m["R"]
		for i := 0; i < n; i++ {
			acc := int64(0)
			for j := 0; j < n; j++ {
				s[j] += r[i] * a[i*n+j]
				acc += a[i*n+j] * p[j]
			}
			q[i] += acc
		}
	})
}

// MakeMvt builds x1 += A y1 and x2 += A^T y2.
func MakeMvt(n int) (*Spec, error) {
	b := kbuild.New("mvt")
	A := b.Array2D("A", n, n)
	X1 := b.Array("X1", n)
	X2 := b.Array("X2", n)
	Y1 := b.Array("Y1", n)
	Y2 := b.Array("Y2", n)
	bA, bX1, bX2, bY1, bY2 := b.BasePtr(A), b.BasePtr(X1), b.BasePtr(X2), b.BasePtr(Y1), b.BasePtr(Y2)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.Set(acc, b.Load(X1, bX1, i))
		b.For(0, n, func(j kbuild.Var) {
			b.AddTo(acc, b.Mul(b.Load(A, bA, i, j), b.Load(Y1, bY1, j)))
		})
		b.Store(X1, bX1, acc, i)
	})
	b.For(0, n, func(i kbuild.Var) {
		b.Set(acc, b.Load(X2, bX2, i))
		b.For(0, n, func(j kbuild.Var) {
			b.AddTo(acc, b.Mul(b.Load(A, bA, j, i), b.Load(Y2, bY2, j)))
		})
		b.Store(X2, bX2, acc, i)
	})
	in := map[string][]int64{
		"A": fill("mvtA", n*n), "X1": fill("mvtX1", n), "X2": fill("mvtX2", n),
		"Y1": fill("mvtY1", n), "Y2": fill("mvtY2", n),
	}
	return finish("mvt", n, b, in, []string{"X1", "X2"}, func(m map[string][]int64) {
		a, x1, x2, y1, y2 := m["A"], m["X1"], m["X2"], m["Y1"], m["Y2"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x1[i] += a[i*n+j] * y1[j]
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x2[i] += a[j*n+i] * y2[j]
			}
		}
	})
}

// MakeGesummv builds y = alpha*A*x + beta*B*x.
func MakeGesummv(n int) (*Spec, error) {
	b := kbuild.New("gesummv")
	A := b.Array2D("A", n, n)
	B2 := b.Array2D("B", n, n)
	X := b.Array("X", n)
	Y := b.Array("Y", n)
	bA, bB, bX, bY := b.BasePtr(A), b.BasePtr(B2), b.BasePtr(X), b.BasePtr(Y)
	sa := b.Local(0)
	sb := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.Set(sa, 0)
		b.Set(sb, 0)
		b.For(0, n, func(j kbuild.Var) {
			x := b.Load(X, bX, j)
			xv := b.Local(0)
			b.Set(xv, x)
			b.AddTo(sa, b.Mul(b.Load(A, bA, i, j), xv))
			b.AddTo(sb, b.Mul(b.Load(B2, bB, i, j), xv))
			b.Free(xv)
		})
		t := b.Add(b.Mul(sa, alpha), b.Mul(sb, beta))
		b.Store(Y, bY, t, i)
	})
	in := map[string][]int64{
		"A": fill("gesummvA", n*n), "B": fill("gesummvB", n*n),
		"X": fill("gesummvX", n), "Y": make([]int64, n),
	}
	return finish("gesummv", n, b, in, []string{"Y"}, func(m map[string][]int64) {
		a, bb, x, y := m["A"], m["B"], m["X"], m["Y"]
		for i := 0; i < n; i++ {
			var sa, sb int64
			for j := 0; j < n; j++ {
				sa += a[i*n+j] * x[j]
				sb += bb[i*n+j] * x[j]
			}
			y[i] = alpha*sa + beta*sb
		}
	})
}

// MakeGemver builds the gemver composite: rank-2 update of A, then
// x += beta*A^T*y, x += z, w += alpha*A*x.
func MakeGemver(n int) (*Spec, error) {
	b := kbuild.New("gemver")
	A := b.Array2D("A", n, n)
	U1 := b.Array("U1", n)
	V1 := b.Array("V1", n)
	U2 := b.Array("U2", n)
	V2 := b.Array("V2", n)
	X := b.Array("X", n)
	Y := b.Array("Y", n)
	Z := b.Array("Z", n)
	W := b.Array("W", n)

	bA := b.BasePtr(A)
	{
		bU1, bV1, bU2, bV2 := b.BasePtr(U1), b.BasePtr(V1), b.BasePtr(U2), b.BasePtr(V2)
		b.For(0, n, func(i kbuild.Var) {
			b.For(0, n, func(j kbuild.Var) {
				t := b.Add(b.Load(A, bA, i, j), b.Mul(b.Load(U1, bU1, i), b.Load(V1, bV1, j)))
				t2 := b.Add(t, b.Mul(b.Load(U2, bU2, i), b.Load(V2, bV2, j)))
				b.Store(A, bA, t2, i, j)
			})
		})
		b.Free(bU1)
		b.Free(bV1)
		b.Free(bU2)
		b.Free(bV2)
	}
	acc := b.Local(0)
	{
		bX, bY := b.BasePtr(X), b.BasePtr(Y)
		b.For(0, n, func(i kbuild.Var) {
			b.Set(acc, b.Load(X, bX, i))
			b.For(0, n, func(j kbuild.Var) {
				t := b.Mul(b.Load(A, bA, j, i), b.Load(Y, bY, j))
				b.AddTo(acc, b.Mul(t, beta))
			})
			b.Store(X, bX, acc, i)
		})
		b.Free(bY)
		bZ := b.BasePtr(Z)
		b.For(0, n, func(i kbuild.Var) {
			t := b.Add(b.Load(X, bX, i), b.Load(Z, bZ, i))
			b.Store(X, bX, t, i)
		})
		b.Free(bZ)
		bW := b.BasePtr(W)
		b.For(0, n, func(i kbuild.Var) {
			b.Set(acc, b.Load(W, bW, i))
			b.For(0, n, func(j kbuild.Var) {
				t := b.Mul(b.Load(A, bA, i, j), b.Load(X, bX, j))
				b.AddTo(acc, b.Mul(t, alpha))
			})
			b.Store(W, bW, acc, i)
		})
	}
	in := map[string][]int64{
		"A":  fill("gemverA", n*n),
		"U1": fill("gemverU1", n), "V1": fill("gemverV1", n),
		"U2": fill("gemverU2", n), "V2": fill("gemverV2", n),
		"X": fill("gemverX", n), "Y": fill("gemverY", n),
		"Z": fill("gemverZ", n), "W": make([]int64, n),
	}
	return finish("gemver", n, b, in, []string{"A", "X", "W"}, func(m map[string][]int64) {
		a, u1, v1, u2, v2 := m["A"], m["U1"], m["V1"], m["U2"], m["V2"]
		x, y, z, w := m["X"], m["Y"], m["Z"], m["W"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] += u1[i]*v1[j] + u2[i]*v2[j]
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x[i] += beta * a[j*n+i] * y[j]
			}
		}
		for i := 0; i < n; i++ {
			x[i] += z[i]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w[i] += alpha * a[i*n+j] * x[j]
			}
		}
	})
}

// MakeSyrk builds C = beta*C + alpha*A*A^T.
func MakeSyrk(n int) (*Spec, error) {
	b := kbuild.New("syrk")
	A := b.Array2D("A", n, n)
	C := b.Array2D("C", n, n)
	bA, bC := b.BasePtr(A), b.BasePtr(C)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Set(acc, b.Mul(b.Load(C, bC, i, j), beta))
			b.For(0, n, func(k kbuild.Var) {
				t := b.Mul(b.Load(A, bA, i, k), b.Load(A, bA, j, k))
				b.AddTo(acc, b.Mul(t, alpha))
			})
			b.Store(C, bC, acc, i, j)
		})
	})
	in := map[string][]int64{"A": fill("syrkA", n*n), "C": fill("syrkC", n*n)}
	return finish("syrk", n, b, in, []string{"C"}, func(m map[string][]int64) {
		a, c := m["A"], m["C"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := c[i*n+j] * beta
				for k := 0; k < n; k++ {
					acc += alpha * a[i*n+k] * a[j*n+k]
				}
				c[i*n+j] = acc
			}
		}
	})
}

// MakeSyr2k builds C = beta*C + alpha*(A*B^T + B*A^T).
func MakeSyr2k(n int) (*Spec, error) {
	b := kbuild.New("syr2k")
	A := b.Array2D("A", n, n)
	B2 := b.Array2D("B", n, n)
	C := b.Array2D("C", n, n)
	bA, bB, bC := b.BasePtr(A), b.BasePtr(B2), b.BasePtr(C)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Set(acc, b.Mul(b.Load(C, bC, i, j), beta))
			b.For(0, n, func(k kbuild.Var) {
				t1 := b.Mul(b.Load(A, bA, i, k), b.Load(B2, bB, j, k))
				b.AddTo(acc, b.Mul(t1, alpha))
				t2 := b.Mul(b.Load(B2, bB, i, k), b.Load(A, bA, j, k))
				b.AddTo(acc, b.Mul(t2, alpha))
			})
			b.Store(C, bC, acc, i, j)
		})
	})
	in := map[string][]int64{
		"A": fill("syr2kA", n*n), "B": fill("syr2kB", n*n), "C": fill("syr2kC", n*n),
	}
	return finish("syr2k", n, b, in, []string{"C"}, func(m map[string][]int64) {
		a, bb, c := m["A"], m["B"], m["C"]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := c[i*n+j] * beta
				for k := 0; k < n; k++ {
					acc += alpha * a[i*n+k] * bb[j*n+k]
					acc += alpha * bb[i*n+k] * a[j*n+k]
				}
				c[i*n+j] = acc
			}
		}
	})
}

// MakeTrmm builds the triangular matrix multiply B = alpha*A*B with A
// unit-lower-triangular (triangular inner loop bound).
func MakeTrmm(n int) (*Spec, error) {
	b := kbuild.New("trmm")
	A := b.Array2D("A", n, n)
	B2 := b.Array2D("B", n, n)
	bA, bB := b.BasePtr(A), b.BasePtr(B2)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.For(0, n, func(j kbuild.Var) {
			b.Set(acc, b.Load(B2, bB, i, j))
			b.For(0, i, func(k kbuild.Var) {
				b.AddTo(acc, b.Mul(b.Load(A, bA, i, k), b.Load(B2, bB, k, j)))
			})
			b.Store(B2, bB, b.Mul(acc, alpha), i, j)
		})
	})
	in := map[string][]int64{"A": fill("trmmA", n*n), "B": fill("trmmB", n*n)}
	return finish("trmm", n, b, in, []string{"B"}, func(m map[string][]int64) {
		a, bb := m["A"], m["B"]
		out := make([]int64, n*n)
		copy(out, bb)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := bb[i*n+j]
				for k := 0; k < i; k++ {
					acc += a[i*n+k] * out[k*n+j]
				}
				out[i*n+j] = acc * alpha
			}
		}
		copy(bb, out)
	})
}

// MakeDoitgen builds sum[p] = sum_s A[r][q][s] * C4[s][p] with the 3-D
// tensor flattened to (r*q, s).
func MakeDoitgen(n int) (*Spec, error) {
	b := kbuild.New("doitgen")
	rq := n * n
	A := b.Array2D("A", rq, n)
	C4 := b.Array2D("C4", n, n)
	S := b.Array("S", n)
	bA, bC, bS := b.BasePtr(A), b.BasePtr(C4), b.BasePtr(S)
	acc := b.Local(0)
	b.For(0, rq, func(r kbuild.Var) {
		b.For(0, n, func(p kbuild.Var) {
			b.Set(acc, 0)
			b.For(0, n, func(s kbuild.Var) {
				b.AddTo(acc, b.Mul(b.Load(A, bA, r, s), b.Load(C4, bC, s, p)))
			})
			b.Store(S, bS, acc, p)
		})
		b.For(0, n, func(p kbuild.Var) {
			b.Store(A, bA, b.Load(S, bS, p), r, p)
		})
	})
	in := map[string][]int64{
		"A": fill("doitgenA", rq*n), "C4": fill("doitgenC4", n*n), "S": make([]int64, n),
	}
	return finish("doitgen", n, b, in, []string{"A"}, func(m map[string][]int64) {
		a, c4 := m["A"], m["C4"]
		s := make([]int64, n)
		for r := 0; r < rq; r++ {
			for p := 0; p < n; p++ {
				acc := int64(0)
				for k := 0; k < n; k++ {
					acc += a[r*n+k] * c4[k*n+p]
				}
				s[p] = acc
			}
			for p := 0; p < n; p++ {
				a[r*n+p] = s[p]
			}
		}
	})
}

// MakeTrisolv solves L x = b for a lower-triangular L by forward
// substitution (integer division).
func MakeTrisolv(n int) (*Spec, error) {
	b := kbuild.New("trisolv")
	L := b.Array2D("L", n, n)
	X := b.Array("X", n)
	B2 := b.Array("B", n)
	bL, bX, bB := b.BasePtr(L), b.BasePtr(X), b.BasePtr(B2)
	acc := b.Local(0)
	b.For(0, n, func(i kbuild.Var) {
		b.Set(acc, b.Load(B2, bB, i))
		b.For(0, i, func(j kbuild.Var) {
			t := b.Mul(b.Load(L, bL, i, j), b.Load(X, bX, j))
			b.Set(acc, b.Sub(acc, t))
		})
		b.Store(X, bX, b.Div(acc, b.Load(L, bL, i, i)), i)
	})
	lvals := fill("trisolvL", n*n)
	for i := 0; i < n; i++ {
		lvals[i*n+i] = int64(3 + i%5) // nonzero diagonal
	}
	in := map[string][]int64{
		"L": lvals, "B": fill("trisolvB", n), "X": make([]int64, n),
	}
	return finish("trisolv", n, b, in, []string{"X"}, func(m map[string][]int64) {
		l, x, bb := m["L"], m["X"], m["B"]
		for i := 0; i < n; i++ {
			acc := bb[i]
			for j := 0; j < i; j++ {
				acc -= l[i*n+j] * x[j]
			}
			x[i] = acc / l[i*n+i]
		}
	})
}

// MakeFloydWarshall builds the all-pairs shortest-path kernel: the min
// is computed branchlessly (sub/shift-mask/and), keeping the hot loop
// straight-line — a different instruction mix from the mul/add kernels.
func MakeFloydWarshall(n int) (*Spec, error) {
	b := kbuild.New("floyd")
	D := b.Array2D("D", n, n)
	bD := b.BasePtr(D)
	ikv := b.Local(0)
	b.For(0, n, func(k kbuild.Var) {
		b.For(0, n, func(i kbuild.Var) {
			b.Set(ikv, b.Load(D, bD, i, k))
			b.For(0, n, func(j kbuild.Var) {
				alt := b.Add(ikv, b.Load(D, bD, k, j))
				best := b.Min(b.Load(D, bD, i, j), alt)
				b.Store(D, bD, best, i, j)
			})
		})
	})
	// Non-negative edge weights keep the min semantics intuitive.
	vals := fill("floydD", n*n)
	for i := range vals {
		if vals[i] < 0 {
			vals[i] = -vals[i]
		}
		vals[i] += 1
	}
	for i := 0; i < n; i++ {
		vals[i*n+i] = 0
	}
	in := map[string][]int64{"D": vals}
	return finish("floyd-warshall", n, b, in, []string{"D"}, func(m map[string][]int64) {
		d := m["D"]
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if alt := d[i*n+k] + d[k*n+j]; alt < d[i*n+j] {
						d[i*n+j] = alt
					}
				}
			}
		}
	})
}

// MakeDurbin builds the Levinson-Durbin Toeplitz solver (integer form):
// a serial outer recurrence with an inner dot product and a reversal
// update, giving a very different dependence structure from the dense
// kernels (alpha/beta kept as integer divisions).
func MakeDurbin(n int) (*Spec, error) {
	b := kbuild.New("durbin")
	R := b.Array("R", n+1)
	Y := b.Array("Y", n)
	Z := b.Array("Z", n)
	bR, bY, bZ := b.BasePtr(R), b.BasePtr(Y), b.BasePtr(Z)
	acc := b.Local(0)
	b.Store(Y, bY, b.Sub(0, b.Load(R, bR, 1)), 0)
	b.For(1, n, func(k kbuild.Var) {
		// acc = r[k+1] + sum_{i<k} r[k-i] * y[i]  (scaled integer form)
		b.Set(acc, b.Load(R, bR, b.Add(k, 1)))
		b.For(0, k, func(i kbuild.Var) {
			idx := b.Sub(k, i)
			b.AddTo(acc, b.Mul(b.Load(R, bR, idx), b.Load(Y, bY, i)))
		})
		// alpha = -acc / (1 + |r1|) — integer shrinkage keeps values tame
		den := b.Add(b.Load(R, bR, 0), 1)
		alpha := b.Div(b.Sub(0, acc), den)
		al := b.Local(0)
		b.Set(al, alpha)
		// z[i] = y[i] + alpha * y[k-1-i]
		b.For(0, k, func(i kbuild.Var) {
			rev := b.Sub(b.Sub(k, 1), i)
			t := b.Add(b.Load(Y, bY, i), b.Mul(al, b.Load(Y, bY, rev)))
			b.Store(Z, bZ, t, i)
		})
		b.For(0, k, func(i kbuild.Var) {
			b.Store(Y, bY, b.Load(Z, bZ, i), i)
		})
		b.Store(Y, bY, al, k)
		b.Free(al)
	})
	rv := fill("durbinR", n+1)
	for i := range rv {
		if rv[i] < 0 {
			rv[i] = -rv[i]
		}
		rv[i]++ // positive, nonzero
	}
	in := map[string][]int64{"R": rv, "Y": make([]int64, n), "Z": make([]int64, n)}
	return finish("durbin", n, b, in, []string{"Y"}, func(m map[string][]int64) {
		r, y, z := m["R"], m["Y"], m["Z"]
		y[0] = -r[1]
		for k := 1; k < n; k++ {
			acc := r[k+1]
			for i := 0; i < k; i++ {
				acc += r[k-i] * y[i]
			}
			alpha := -acc / (r[0] + 1)
			for i := 0; i < k; i++ {
				z[i] = y[i] + alpha*y[k-1-i]
			}
			copy(y[:k], z[:k])
			y[k] = alpha
		}
	})
}

// MakeNussinov builds the Nussinov-style dynamic-programming recurrence
// over the upper triangle with a branchless max — table cells depend on
// cells computed earlier in the same sweep (store-to-load within the
// kernel's own output array).
func MakeNussinov(n int) (*Spec, error) {
	b := kbuild.New("nussinov")
	S := b.Array2D("S", n, n)
	W := b.Array("W", n)
	bS, bW := b.BasePtr(S), b.BasePtr(W)
	best := b.Local(0)
	b.For(1, n, func(d kbuild.Var) {
		lim := b.Local(0)
		b.Set(lim, b.Sub(n, d))
		b.For(0, lim, func(i kbuild.Var) {
			j := b.Local(0)
			b.Set(j, b.Add(i, d))
			// best = max(S[i+1][j-1] + pair(i, j), S[i+1][j], S[i][j-1])
			p := b.Add(b.Load(W, bW, i), b.Load(W, bW, j))
			diag := b.Add(b.Load(S, bS, b.Add(i, 1), b.Sub(j, 1)), b.Shr(p, 3))
			b.Set(best, b.Max(diag, b.Load(S, bS, b.Add(i, 1), j)))
			b.Set(best, b.Max(best, b.Load(S, bS, i, b.Sub(j, 1))))
			b.Store(S, bS, best, i, j)
			b.Free(j)
		})
		b.Free(lim)
	})
	wv := fill("nussinovW", n)
	for i := range wv {
		if wv[i] < 0 {
			wv[i] = -wv[i]
		}
	}
	in := map[string][]int64{"S": make([]int64, n*n), "W": wv}
	return finish("nussinov", n, b, in, []string{"S"}, func(m map[string][]int64) {
		s, w := m["S"], m["W"]
		for d := 1; d < n; d++ {
			for i := 0; i+d < n; i++ {
				j := i + d
				pair := (w[i] + w[j]) >> 3
				best := s[(i+1)*n+(j-1)] + pair
				if v := s[(i+1)*n+j]; v > best {
					best = v
				}
				if v := s[i*n+(j-1)]; v > best {
					best = v
				}
				s[i*n+j] = best
			}
		}
	})
}
