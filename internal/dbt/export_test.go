package dbt

import (
	"fmt"

	"ghostbusters/internal/ir"
	"ghostbusters/internal/vliw"
)

// Hooks for the external dbt_test package, whose tests import packages
// that themselves depend on dbt (internal/attack).

// CompileRegion compiles the region at pc the way the DBT engine does
// (Machine.compile, front end to emit) without installing it: through
// the machine's reused compile memory, or through fresh memory when
// fresh is set. It returns the mitigated IR and the compiled block. The
// IR of the reused path lives in the machine's builder until its next
// compile.
func (m *Machine) CompileRegion(pc uint64, asTrace, fresh bool) (*ir.Block, *vliw.Block, error) {
	saved := m.transState
	if fresh {
		// Fresh compile memory over the machine's own image and profile.
		ts := newTransState(m.mem)
		ts.pcs = m.pcs
		m.transState = ts
	}
	e := m.compile(pc, asTrace)
	irBlk := m.front.Block()
	m.transState = saved
	if e == nil {
		return nil, nil, fmt.Errorf("dbt: region %#x did not compile", pc)
	}
	return irBlk, e.Block, nil
}

// SpareSets counts the released sets on the spare list whose guest image
// is size bytes at base.
func SpareSets(base, size uint64) int {
	spares.Lock()
	defer spares.Unlock()
	n := 0
	for _, ts := range spares.sets {
		if ts.mem.Base() == base && ts.mem.Size() == size {
			n++
		}
	}
	return n
}
