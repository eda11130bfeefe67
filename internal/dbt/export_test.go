package dbt

import (
	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/vliw"
)

// Hooks for the external dbt_test package, whose tests import packages
// that themselves depend on dbt (internal/attack).

// SchedMemory is the reusable scheduler memory a machine compiles its
// regions through.
type SchedMemory = graph

// RegionIR runs the front end over the region at pc the way the DBT
// engine would translate it now (a trace follows the branch profile).
func (m *Machine) RegionIR(pc uint64, asTrace bool) (*ir.Block, int, error) {
	return m.frontEnd(pc, asTrace)
}

// CompileThrough compiles b through the scheduler memory g.
func CompileThrough(g *SchedMemory, b *ir.Block, guestInsts int, cfg *vliw.Config, mode core.Mode) (*vliw.Block, error) {
	res, err := compileWith(g, b, guestInsts, cfg, mode, compileOpts{})
	if err != nil {
		return nil, err
	}
	return res.Block, nil
}
