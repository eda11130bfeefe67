package kbuild

import (
	"fmt"

	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/riscv"
)

// Host-side helpers: the experiment harness initialises kernel inputs by
// writing guest memory directly before the run (the paper's benchmarks
// arrive with initialised data; generating init loops in the guest would
// only add warm-up noise) and reads results back afterwards.

// Placement is an array's resolved location within one assembled program
// image. The harness resolves placements once per artifact and shares
// them between runs: a Placement is read-only after Resolve and safe for
// concurrent use from many machines.
type Placement struct {
	Arr   *Array
	Base  uint64 // element data
	Table uint64 // row-pointer table (Ptr arrays only)
}

// Resolve locates every array in prog's symbol table.
func Resolve(prog *riscv.Program, arrays []*Array) ([]Placement, error) {
	out := make([]Placement, len(arrays))
	for i, a := range arrays {
		p := Placement{Arr: a}
		if a.Ptr {
			table, ok := prog.Symbol(a.Name + "_rows")
			if !ok {
				return nil, fmt.Errorf("kbuild: %s: missing row table symbol", a.Name)
			}
			data, ok := prog.Symbol(a.Name + "_data")
			if !ok {
				return nil, fmt.Errorf("kbuild: %s: missing data symbol", a.Name)
			}
			p.Table, p.Base = table, data
		} else {
			base, ok := prog.Symbol(a.Name)
			if !ok {
				return nil, fmt.Errorf("kbuild: %s: missing symbol", a.Name)
			}
			p.Base = base
		}
		out[i] = p
	}
	return out, nil
}

// Init writes values into the placed guest array. For row-pointer arrays
// it also fills the pointer table.
func (p Placement) Init(mem *guestmem.Memory, values []int64) error {
	a := p.Arr
	if len(values) != a.Elems() {
		return fmt.Errorf("kbuild: %s: %d values for %d elements", a.Name, len(values), a.Elems())
	}
	if a.Ptr {
		for r := 0; r < a.Rows; r++ {
			rowAddr := p.Base + uint64(r*a.Cols*8)
			if err := mem.Write(p.Table+uint64(8*r), 8, rowAddr); err != nil {
				return err
			}
		}
	}
	for i, v := range values {
		if err := mem.Write(p.Base+uint64(8*i), 8, uint64(v)); err != nil {
			return err
		}
	}
	return nil
}

// Read fetches the current contents of the placed guest array.
func (p Placement) Read(mem *guestmem.Memory) ([]int64, error) {
	out := make([]int64, p.Arr.Elems())
	for i := range out {
		v, err := mem.Read(p.Base+uint64(8*i), 8)
		if err != nil {
			return nil, err
		}
		out[i] = int64(v)
	}
	return out, nil
}

// Mismatch compares the placed guest array with want in place, word by
// word, without copying it out. It returns the index and guest value of
// the first element that differs, or index -1 when every element
// matches. want must hold one value per element.
func (p Placement) Mismatch(mem *guestmem.Memory, want []int64) (int, int64, error) {
	if len(want) != p.Arr.Elems() {
		return 0, 0, fmt.Errorf("kbuild: %s: %d values for %d elements", p.Arr.Name, len(want), p.Arr.Elems())
	}
	for i, w := range want {
		v, err := mem.Read(p.Base+uint64(8*i), 8)
		if err != nil {
			return 0, 0, err
		}
		if int64(v) != w {
			return i, int64(v), nil
		}
	}
	return -1, 0, nil
}
