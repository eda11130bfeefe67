// Package pipeline is the DBT engine's mitigation step. Every mode in
// core's mode table is one function here, applied to an IR block
// before scheduling: the paper's modes and the alternative mitigations
// from the related work (blanket load fencing, SFI-style address
// clamping, Blade-style minimal cuts) share one dispatch and plug in
// without touching the back end.
//
// The poison analysis (core.AnalyzePins) runs once per block in Apply;
// the mode's function receives its report and pin lists and mutates
// the block, adding its own mitigation counters to the report.
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

// mitigation applies one mode to b given the block's analysis: rep is
// the report to complete (GuardEdges, and any renumbering the rewrite
// causes), pins the sorted guard list of every risky load. aud is nil
// when the caller did not ask for provenance bookkeeping.
type mitigation func(b *ir.Block, rep *core.Report, pins map[int][]int, aud *ir.AuditReport)

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

// Apply runs the poison analysis over b once and mitigates b under
// mode, returning the analysis report with the mitigation's counters.
// With a non-nil aud the analysis records its provenance chains there
// and aud.GuardEdges takes the report's count. mode must be valid
// (core.Mode.Valid).
func Apply(mode core.Mode, b *ir.Block, aud *ir.AuditReport) core.Report {
	rep, pins := core.AnalyzePins(b, aud)
	mitigations[mode](b, &rep, pins, aud)
	if aud != nil {
		aud.GuardEdges = rep.GuardEdges
	}
	return rep
}
