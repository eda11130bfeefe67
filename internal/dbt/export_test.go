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
func (m *Machine) CompileRegion(pc uint64, asTrace, noMemSpec, fresh bool) (*ir.Block, *vliw.Block, error) {
	saved := m.ts
	if fresh {
		m.ts = newTransState()
	}
	e := m.compile(pc, asTrace, noMemSpec)
	irBlk := m.ts.front.Block()
	m.ts = saved
	if e == nil {
		return nil, nil, fmt.Errorf("dbt: region %#x did not compile", pc)
	}
	return irBlk, e.Block, nil
}
