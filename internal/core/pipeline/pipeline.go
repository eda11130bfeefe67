// Package pipeline is the DBT engine's mitigation step: a registry of
// named, ordered, independently-testable IR passes. A core.Mode selects
// a Pipeline — an ordered list of passes applied to the block before
// scheduling — so the paper's modes and the alternative mitigations
// from the related work (blanket load fencing, SFI-style address
// clamping, Blade-style minimal cuts) share one dispatch and plug in
// without touching the back end.
//
// Determinism contract: a pass may only mutate the block through
// deterministic iteration (program-order loops, sorted guard lists), so
// repeated applications to equal blocks yield byte-identical b.Edges,
// b.Insts and DOT renderings. Every pass must also be idempotent:
// applying a pipeline to an already-mitigated block changes nothing —
// passes that insert instructions mark them with ir.TempDest and skip
// accesses that already carry their rewrite.
//
// Audit attribution: one ir.AuditReport spans the whole pipeline. After
// each pass runs, the provenance chains it appended are stamped with
// the pass name and an ir.PassAttribution entry records its share of
// the mitigation work, in application order.
package pipeline

import (
	"fmt"
	"sort"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
)

// PassReport is what one pass did to one block.
type PassReport struct {
	// Pass is the registered pass name (stamped by the pipeline runner).
	Pass string
	// Report is the pass's detection/mitigation report in core.Report
	// terms. For analysis-bearing passes this is the poison analysis
	// result plus the pass's own GuardEdges count.
	Report core.Report
	// PinnedEdges counts relaxable edges the pass made hard outside of
	// the guard-edge mechanism (fences, blanket pins, cut pins).
	PinnedEdges int
	// InsertedInsts counts instructions the pass added to the block
	// (mask chains and similar rewrites).
	InsertedInsts int
}

// Pass is one named mitigation step over an IR block. Apply mutates the
// block in place; aud is nil when the caller did not ask for
// provenance bookkeeping. Apply must be deterministic and idempotent
// (see the package comment).
type Pass struct {
	Name  string
	Apply func(b *ir.Block, aud *ir.AuditReport) PassReport
}

// Pipeline is the ordered pass list a mitigation mode resolves to,
// plus the metadata the docs and leakage matrix render.
type Pipeline struct {
	Mode      core.Mode
	Name      string // mode name (matches core.ParseMode)
	Mechanism string // one-line description of how it mitigates
	Lineage   string // paper lineage of the technique
	// Fig4 marks the four modes the paper's Figure 4 compares;
	// harness.Fig4Modes derives from this flag so the byte-identity and
	// -checkperf gates keep covering exactly the seed modes.
	Fig4   bool
	Passes []Pass
}

// Apply runs every pass in order without audit bookkeeping and returns
// the aggregate report plus the per-pass reports.
func (p *Pipeline) Apply(b *ir.Block) (core.Report, []PassReport) {
	return p.run(b, nil)
}

// ApplyAudited is Apply with a pipeline-spanning audit report: chains
// are stamped with the pass that produced them and aud.Passes records
// each pass's attribution in application order.
func (p *Pipeline) ApplyAudited(b *ir.Block) (core.Report, *ir.AuditReport, []PassReport) {
	aud := &ir.AuditReport{}
	rep, prs := p.run(b, aud)
	return rep, aud, prs
}

func (p *Pipeline) run(b *ir.Block, aud *ir.AuditReport) (core.Report, []PassReport) {
	var agg core.Report
	out := make([]PassReport, 0, len(p.Passes))
	for k := range p.Passes {
		pass := &p.Passes[k]
		chainsBefore := 0
		if aud != nil {
			chainsBefore = len(aud.Pinned)
		}
		pr := pass.Apply(b, aud)
		pr.Pass = pass.Name
		out = append(out, pr)
		if k == 0 {
			// Detection counters describe the block once (the first
			// analysis-bearing pass owns them); mitigation counters
			// accumulate across passes.
			agg = pr.Report
		} else {
			agg.GuardEdges += pr.Report.GuardEdges
		}
		if aud != nil {
			for i := chainsBefore; i < len(aud.Pinned); i++ {
				aud.Pinned[i].Pass = pass.Name
			}
			aud.Passes = append(aud.Passes, ir.PassAttribution{
				Pass:          pass.Name,
				RiskyLoads:    len(pr.Report.RiskyLoads),
				GuardEdges:    pr.Report.GuardEdges,
				PinnedEdges:   pr.PinnedEdges,
				InsertedInsts: pr.InsertedInsts,
			})
		}
	}
	if aud != nil {
		aud.GuardEdges = agg.GuardEdges
	}
	return agg, out
}

var (
	byMode = map[core.Mode]*Pipeline{}
	byName = map[string]*Pipeline{}
	order  []core.Mode // registration order (mode-value order for the built-ins)
)

// Register adds a pipeline to the registry. It panics on duplicate
// mode or name — registration is an init-time programming act, not a
// runtime input.
func Register(p *Pipeline) {
	if p.Name == "" || len(p.Passes) == 0 {
		panic(fmt.Sprintf("pipeline: registering %q with no name or no passes", p.Name))
	}
	if _, dup := byMode[p.Mode]; dup {
		panic(fmt.Sprintf("pipeline: duplicate registration for mode %v", p.Mode))
	}
	if _, dup := byName[p.Name]; dup {
		panic(fmt.Sprintf("pipeline: duplicate registration for name %q", p.Name))
	}
	byMode[p.Mode] = p
	byName[p.Name] = p
	order = append(order, p.Mode)
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
}

// For resolves a mode to its registered pipeline.
func For(mode core.Mode) (*Pipeline, error) {
	p, ok := byMode[mode]
	if !ok {
		return nil, fmt.Errorf("pipeline: no pipeline registered for mode %v", mode)
	}
	return p, nil
}

// MustFor is For for callers holding a mode that ParseMode accepted.
func MustFor(mode core.Mode) *Pipeline {
	p, err := For(mode)
	if err != nil {
		panic(err)
	}
	return p
}

// ByName resolves a registered pipeline by its mode name.
func ByName(name string) (*Pipeline, error) {
	p, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("pipeline: no pipeline registered as %q", name)
	}
	return p, nil
}

// Modes returns every registered mode in mode-value order. Harness
// matrices, torture tests and the leakage matrix derive their mode
// lists from this, so a newly registered mitigation appears everywhere
// automatically.
func Modes() []core.Mode {
	return append([]core.Mode(nil), order...)
}

// Fig4Modes returns the registered modes flagged as part of the paper's
// Figure 4 comparison, in mode-value order (the paper's four modes).
func Fig4Modes() []core.Mode {
	var out []core.Mode
	for _, m := range order {
		if byMode[m].Fig4 {
			out = append(out, m)
		}
	}
	return out
}

// All returns every registered pipeline in mode-value order.
func All() []*Pipeline {
	out := make([]*Pipeline, 0, len(order))
	for _, m := range order {
		out = append(out, byMode[m])
	}
	return out
}
