// Package pipeline is the DBT engine's mitigation step. Every mode in
// core's mode table is one function here, applied to an IR block
// before scheduling: the paper's modes and the alternative mitigations
// from the related work (blanket load fencing, SFI-style address
// clamping, Blade-style minimal cuts) share one dispatch and plug in
// without touching the back end.
//
// The poison analysis (core.Analysis.AnalyzePins) runs once per block
// in Apply; the mode's function receives its report and pin lists,
// mutates the block and returns the guard edges it inserted.
//
// Determinism contract: a mitigation may only mutate the block through
// deterministic iteration (program-order loops, sorted guard lists), so
// repeated applications to equal blocks yield byte-identical b.Edges,
// b.Insts and DOT renderings. Every mitigation must also be idempotent:
// applying it to an already-mitigated block changes nothing —
// mitigations that insert instructions mark them with ir.TempDest and
// skip accesses that already carry their rewrite.
package pipeline

import (
	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
)

// mitigation applies one mode to b given the block's analysis — its
// report rep and pins[k], the sorted guard list of risky load
// rep.RiskyLoads[k] — and returns the number of guard edges it
// inserted. A rewrite that renumbers the block renumbers rep's lists
// in place. mem is the step's reusable memory, and aud is nil when the
// caller did not ask for provenance bookkeeping.
type mitigation func(b *ir.Block, rep core.Report, pins [][]int, mem *Memory, aud *ir.AuditReport) (guardEdges int)

// Memory is the mitigation step's reusable memory: the poison
// analysis's and fence-min's poison flow's. Each keeps its tables from
// one block to the next, so a caller that mitigates its blocks through
// one Memory stops allocating for them once it has grown.
type Memory struct {
	analysis core.Analysis
	flow     flowMem
}

// mitigations holds each mode's function, indexed like core's mode
// table.
var mitigations = [...]mitigation{
	core.ModeUnsafe:        detectOnly,
	core.ModeGhostBusters:  ghostBusters,
	core.ModeFence:         fence,
	core.ModeNoSpeculation: noSpec,
	core.ModeLoadFence:     loadFence,
	core.ModeSFIClamp:      sfiClamp,
	core.ModeFenceMin:      fenceMin,
}

// Apply runs the poison analysis over b once, in mem, and mitigates b
// under mode, returning the analysis report with the mitigation's
// counters. The report's lists live in mem until its next use; a nil
// mem works through fresh memory. With a non-nil aud the analysis
// records its provenance chains there and aud.GuardEdges takes the
// report's count. mode must be valid (core.Mode.Valid).
func Apply(mem *Memory, mode core.Mode, b *ir.Block, aud *ir.AuditReport) core.Report {
	if mem == nil {
		mem = new(Memory)
	}
	rep, pins := mem.analysis.AnalyzePins(b, aud)
	rep.GuardEdges = mitigations[mode](b, rep, pins, mem, aud)
	if aud != nil {
		aud.GuardEdges = rep.GuardEdges
	}
	return rep
}
