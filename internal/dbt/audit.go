package dbt

import (
	"fmt"
	"sort"
	"strings"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
)

// AuditSchema identifies the machine-wide audit JSON document emitted
// by gbrun -audit-json / gbspectre -audit-json.
const AuditSchema = "ghostbusters/audit/v1"

// BlockAudit pairs one translated region's provenance report with the
// mitigated IR block it replays against (ir.AuditReport.Verify).
type BlockAudit struct {
	PC      uint64
	IsTrace bool
	Report  *ir.AuditReport
	IR      *ir.Block
}

// Audit is the machine-wide aggregation of per-block audit reports:
// every region currently installed in the translation cache, in PC
// order, under the mitigation mode the machine ran with. Deopts and
// trace upgrades replace their entry's report, so the audit always
// describes the code that is actually installed.
type Audit struct {
	Mode   core.Mode
	Blocks []BlockAudit
}

// Audit returns the machine-wide audit, or nil when Config.Audit was
// off (no provenance was collected). Safe to call after Release: the
// translation cache index survives memory recycling.
func (m *Machine) Audit() *Audit {
	if !m.cfg.Audit {
		return nil
	}
	a := &Audit{Mode: m.cfg.Mitigation}
	for pc, e := range m.trans {
		if e.audit == nil {
			continue
		}
		a.Blocks = append(a.Blocks, BlockAudit{PC: pc, IsTrace: e.Trace, Report: e.audit, IR: e.auditIR})
	}
	sort.Slice(a.Blocks, func(i, j int) bool { return a.Blocks[i].PC < a.Blocks[j].PC })
	return a
}

// Verify replays every block's report against its retained IR —
// guard-edge-backed in ghostbusters mode. The cross-check behind the
// audit's claims: a chain that does not correspond to real operand
// steps and real edges fails here.
func (a *Audit) Verify() error {
	require := a.Mode == core.ModeGhostBusters
	for _, b := range a.Blocks {
		if b.Report == nil || b.IR == nil {
			return fmt.Errorf("dbt: audit block @%#x has no report/IR", b.PC)
		}
		if err := b.Report.Verify(b.IR, require); err != nil {
			return fmt.Errorf("dbt: audit block @%#x: %w", b.PC, err)
		}
	}
	return nil
}

// AuditTotals summarises the machine-wide audit.
type AuditTotals struct {
	Blocks           int
	LoadsAnalyzed    int
	SpeculativeLoads int
	Poisoned         int
	Pinned           int
	Relaxed          int
	GuardEdges       int
	// DepthHist counts provenance chains (poisoned and pinned) by
	// data-flow depth from their source load.
	DepthHist map[int]int
}

// Totals aggregates the per-block reports.
func (a *Audit) Totals() AuditTotals {
	t := AuditTotals{Blocks: len(a.Blocks), DepthHist: map[int]int{}}
	for _, b := range a.Blocks {
		r := b.Report
		t.LoadsAnalyzed += r.LoadsAnalyzed
		t.SpeculativeLoads += r.SpeculativeLoads
		t.Poisoned += len(r.Poisoned)
		t.Pinned += len(r.Pinned)
		t.Relaxed += r.RelaxedLoads
		t.GuardEdges += r.GuardEdges
		for i := range r.Poisoned {
			t.DepthHist[r.Poisoned[i].Depth()]++
		}
		for i := range r.Pinned {
			t.DepthHist[r.Pinned[i].Depth()]++
		}
	}
	return t
}

// --- JSON document (schema ghostbusters/audit/v1) ---

type auditGuardJSON struct {
	Node int    `json:"node"`
	PC   string `json:"pc"`
	Op   string `json:"op"`
	Kind string `json:"kind"`
}

type auditChainJSON struct {
	Node   int              `json:"node"`
	PC     string           `json:"pc"`
	Op     string           `json:"op"`
	Source int              `json:"source"`
	Depth  int              `json:"depth"`
	Path   []int            `json:"path"`
	Guards []auditGuardJSON `json:"guards,omitempty"`
}

type auditBlockJSON struct {
	PC               string           `json:"pc"`
	Kind             string           `json:"kind"` // "block" or "trace"
	LoadsAnalyzed    int              `json:"loads_analyzed"`
	SpeculativeLoads int              `json:"speculative_loads"`
	Relaxed          int              `json:"relaxed"`
	GuardEdges       int              `json:"guard_edges"`
	Pinned           []auditChainJSON `json:"pinned"`
	Poisoned         []auditChainJSON `json:"poisoned"`
}

type auditTotalsJSON struct {
	Blocks           int            `json:"blocks"`
	LoadsAnalyzed    int            `json:"loads_analyzed"`
	SpeculativeLoads int            `json:"speculative_loads"`
	Poisoned         int            `json:"poisoned"`
	Pinned           int            `json:"pinned"`
	Relaxed          int            `json:"relaxed"`
	GuardEdges       int            `json:"guard_edges"`
	DepthHist        map[string]int `json:"depth_hist"`
}

// AuditDoc is the marshalable machine-wide audit document.
type AuditDoc struct {
	Schema string           `json:"schema"`
	Mode   string           `json:"mode"`
	Totals auditTotalsJSON  `json:"totals"`
	Blocks []auditBlockJSON `json:"blocks"`
}

func chainJSON(c *ir.ProvenanceChain) auditChainJSON {
	out := auditChainJSON{
		Node:   c.Node,
		PC:     fmt.Sprintf("%#x", c.PC),
		Op:     c.Op,
		Source: c.Source,
		Depth:  c.Depth(),
		Path:   c.Path,
	}
	for _, g := range c.Guards {
		out.Guards = append(out.Guards, auditGuardJSON{
			Node: g.Node, PC: fmt.Sprintf("%#x", g.PC), Op: g.Op, Kind: g.Kind.String(),
		})
	}
	return out
}

// Doc renders the audit as its stable JSON document.
func (a *Audit) Doc() *AuditDoc {
	t := a.Totals()
	doc := &AuditDoc{
		Schema: AuditSchema,
		Mode:   a.Mode.String(),
		Totals: auditTotalsJSON{
			Blocks:           t.Blocks,
			LoadsAnalyzed:    t.LoadsAnalyzed,
			SpeculativeLoads: t.SpeculativeLoads,
			Poisoned:         t.Poisoned,
			Pinned:           t.Pinned,
			Relaxed:          t.Relaxed,
			GuardEdges:       t.GuardEdges,
			DepthHist:        map[string]int{},
		},
		Blocks: []auditBlockJSON{},
	}
	for d, n := range t.DepthHist {
		doc.Totals.DepthHist[fmt.Sprintf("%d", d)] = n
	}
	for _, b := range a.Blocks {
		kind := "block"
		if b.IsTrace {
			kind = "trace"
		}
		bj := auditBlockJSON{
			PC:               fmt.Sprintf("%#x", b.PC),
			Kind:             kind,
			LoadsAnalyzed:    b.Report.LoadsAnalyzed,
			SpeculativeLoads: b.Report.SpeculativeLoads,
			Relaxed:          b.Report.RelaxedLoads,
			GuardEdges:       b.Report.GuardEdges,
			Pinned:           []auditChainJSON{},
			Poisoned:         []auditChainJSON{},
		}
		for i := range b.Report.Pinned {
			bj.Pinned = append(bj.Pinned, chainJSON(&b.Report.Pinned[i]))
		}
		for i := range b.Report.Poisoned {
			bj.Poisoned = append(bj.Poisoned, chainJSON(&b.Report.Poisoned[i]))
		}
		doc.Blocks = append(doc.Blocks, bj)
	}
	return doc
}

// --- human-readable table ---

func pathString(path []int) string {
	var sb strings.Builder
	for i, n := range path {
		if i > 0 {
			sb.WriteString("->")
		}
		fmt.Fprintf(&sb, "n%d", n)
	}
	return sb.String()
}

func guardString(gs []ir.GuardRef) string {
	var sb strings.Builder
	for i, g := range gs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "n%d %s @%#x (%s)", g.Node, g.Op, g.PC, g.Kind)
	}
	return sb.String()
}

// Format renders the audit as the human-readable explainability table
// gbrun -audit and gbspectre -audit print: one header line of totals,
// a provenance-depth histogram, then per block every pinned access
// with its full chain (source load → data-flow path → guards) and
// every poisoned node with its witness source.
func (a *Audit) Format() string {
	var sb strings.Builder
	t := a.Totals()
	fmt.Fprintf(&sb, "audit mode=%s: %d regions, %d loads analyzed, %d speculative, %d poisoned, %d pinned, %d relaxed, %d guard edges\n",
		a.Mode, t.Blocks, t.LoadsAnalyzed, t.SpeculativeLoads, t.Poisoned, t.Pinned, t.Relaxed, t.GuardEdges)
	if len(t.DepthHist) > 0 {
		depths := make([]int, 0, len(t.DepthHist))
		for d := range t.DepthHist {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		sb.WriteString("provenance depth histogram:")
		for _, d := range depths {
			fmt.Fprintf(&sb, " %d:%d", d, t.DepthHist[d])
		}
		sb.WriteByte('\n')
	}
	for _, b := range a.Blocks {
		kind := "block"
		if b.IsTrace {
			kind = "trace"
		}
		r := b.Report
		fmt.Fprintf(&sb, "%s @%#x: loads=%d spec=%d pinned=%d relaxed=%d guard-edges=%d\n",
			kind, b.PC, r.LoadsAnalyzed, r.SpeculativeLoads, len(r.Pinned), r.RelaxedLoads, r.GuardEdges)
		for i := range r.Pinned {
			c := &r.Pinned[i]
			src := &b.IR.Insts[c.Source]
			fmt.Fprintf(&sb, "  pinned n%d %s @%#x: addr poisoned by n%d %s @%#x via %s (depth %d); guards: %s\n",
				c.Node, c.Op, c.PC, c.Source, src.Op, src.PC, pathString(c.Path), c.Depth(), guardString(c.Guards))
		}
		for i := range r.Poisoned {
			c := &r.Poisoned[i]
			if c.Depth() == 0 {
				fmt.Fprintf(&sb, "  poisoned n%d %s @%#x: speculative load (source); guards: %s\n",
					c.Node, c.Op, c.PC, guardString(c.Guards))
				continue
			}
			src := &b.IR.Insts[c.Source]
			fmt.Fprintf(&sb, "  poisoned n%d %s @%#x: from n%d %s @%#x via %s (depth %d)\n",
				c.Node, c.Op, c.PC, c.Source, src.Op, src.PC, pathString(c.Path), c.Depth())
		}
	}
	return sb.String()
}
