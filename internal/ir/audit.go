package ir

import "fmt"

// Audit structures record *why* the poisoning analysis reached its
// conclusions: for every poisoned node and every pinned (mitigated)
// access, the provenance chain from the source speculative load,
// through the data-flow path the poison travelled, to the guard
// branches/stores the access was made control-dependent on. They are
// produced by internal/core's audited analysis and aggregated
// machine-wide by internal/dbt; gbrun -audit and gbspectre -audit
// render them, and AuditReport.Verify replays a chain against the
// block to prove the explanation matches the graph.

// GuardKind classifies the speculation source an access was guarded
// against: a side-exit branch (Spectre v1's hoisted bounds check) or a
// possibly-aliasing store (Spectre v4's bypassed store).
type GuardKind uint8

const (
	GuardBranch GuardKind = iota
	GuardStore
)

func (k GuardKind) String() string {
	switch k {
	case GuardBranch:
		return "branch"
	case GuardStore:
		return "store"
	}
	return "?"
}

// GuardRef identifies one guard instruction implicated in a chain: the
// branch or store whose relaxable edge let the source load speculate,
// and which the mitigation therefore re-anchors the sink to.
type GuardRef struct {
	Node int       // instruction index in the block
	PC   uint64    // guest PC of the guard
	Op   string    // guest mnemonic
	Kind GuardKind // branch (v1) or store (v4)
}

// ProvenanceChain explains one analysis conclusion. Path is the
// data-flow walk the poison took, oldest first: Path[0] is the source
// speculative load that generated the poison, Path[len-1] is Node (the
// poisoned instruction, or the pinned access whose address the poison
// reached). Each consecutive pair is a producer→consumer operand step
// in the block. Guards are the speculation sources the poison is
// conditional on.
type ProvenanceChain struct {
	Node   int    // the instruction this chain explains
	PC     uint64 // its guest PC
	Op     string // its guest mnemonic
	Source int    // == Path[0], the poison-generating speculative load
	Path   []int
	Guards []GuardRef
}

// Depth is the number of data-flow steps from source to node; a source
// load explaining itself has depth 0.
func (c *ProvenanceChain) Depth() int { return len(c.Path) - 1 }

// AuditReport is the per-block output of the audited poison analysis.
type AuditReport struct {
	EntryPC uint64

	// LoadsAnalyzed counts every load in the block; SpeculativeLoads
	// those with at least one relaxable incoming edge (the scheduler
	// may hoist them); RelaxedLoads the speculative loads the analysis
	// proved safe and left speculating.
	LoadsAnalyzed    int
	SpeculativeLoads int
	RelaxedLoads     int

	// GuardEdges is the number of EdgeGuard control dependencies the
	// mitigation inserted (ghostbusters mode only).
	GuardEdges int

	// Poisoned has one chain per poisoned instruction (including the
	// source loads themselves, at depth 0). Pinned has one chain per
	// risky access — a speculative load whose address is poisoned, the
	// Spectre pattern — explaining which source load taints the
	// address and which guards the mitigation anchors it to.
	Poisoned []ProvenanceChain
	Pinned   []ProvenanceChain
}

// verifyChain replays one chain against the block: every claimed
// data-flow step must be a real operand reference, the source must be
// a load, and every guard must be a branch or store of the claimed
// kind appearing before the explained node.
func (a *AuditReport) verifyChain(b *Block, what string, c *ProvenanceChain) error {
	n := len(b.Insts)
	if c.Node < 0 || c.Node >= n {
		return fmt.Errorf("ir: audit %s chain: node n%d out of range", what, c.Node)
	}
	if len(c.Path) == 0 {
		return fmt.Errorf("ir: audit %s chain for n%d: empty path", what, c.Node)
	}
	if c.Path[0] != c.Source {
		return fmt.Errorf("ir: audit %s chain for n%d: path starts at n%d, source says n%d", what, c.Node, c.Path[0], c.Source)
	}
	if last := c.Path[len(c.Path)-1]; last != c.Node {
		return fmt.Errorf("ir: audit %s chain for n%d: path ends at n%d", what, c.Node, last)
	}
	if c.Source < 0 || c.Source >= n {
		return fmt.Errorf("ir: audit %s chain for n%d: source n%d out of range", what, c.Node, c.Source)
	}
	if !b.Insts[c.Source].IsLoad() {
		return fmt.Errorf("ir: audit %s chain for n%d: source n%d (%s) is not a load", what, c.Node, c.Source, b.Insts[c.Source].Op)
	}
	if in := &b.Insts[c.Node]; in.PC != c.PC || in.Op.String() != c.Op {
		return fmt.Errorf("ir: audit %s chain for n%d: records %s @%#x, block has %s @%#x", what, c.Node, c.Op, c.PC, in.Op, in.PC)
	}
	for step := 0; step+1 < len(c.Path); step++ {
		from, to := c.Path[step], c.Path[step+1]
		if to < 0 || to >= n || from < 0 || from >= n {
			return fmt.Errorf("ir: audit %s chain for n%d: step n%d->n%d out of range", what, c.Node, from, to)
		}
		in := &b.Insts[to]
		if !((in.A.Kind == OpInst && in.A.Inst == from) || (in.B.Kind == OpInst && in.B.Inst == from)) {
			return fmt.Errorf("ir: audit %s chain for n%d: claimed data-flow step n%d->n%d is not an operand of n%d", what, c.Node, from, to, to)
		}
	}
	for _, g := range c.Guards {
		if g.Node < 0 || g.Node >= n {
			return fmt.Errorf("ir: audit %s chain for n%d: guard n%d out of range", what, c.Node, g.Node)
		}
		if g.Node >= c.Node {
			return fmt.Errorf("ir: audit %s chain for n%d: guard n%d does not precede it", what, c.Node, g.Node)
		}
		gi := &b.Insts[g.Node]
		switch g.Kind {
		case GuardBranch:
			if !gi.IsBranch() {
				return fmt.Errorf("ir: audit %s chain for n%d: guard n%d (%s) claimed branch", what, c.Node, g.Node, gi.Op)
			}
		case GuardStore:
			if !gi.IsStore() {
				return fmt.Errorf("ir: audit %s chain for n%d: guard n%d (%s) claimed store", what, c.Node, g.Node, gi.Op)
			}
		default:
			return fmt.Errorf("ir: audit %s chain for n%d: guard n%d has unknown kind", what, c.Node, g.Node)
		}
		if gi.PC != g.PC || gi.Op.String() != g.Op {
			return fmt.Errorf("ir: audit %s chain for n%d: guard n%d records %s @%#x, block has %s @%#x", what, c.Node, g.Node, g.Op, g.PC, gi.Op, gi.PC)
		}
	}
	return nil
}

// Verify replays the report against the block it claims to describe.
// Every chain's data-flow path and guard references are checked
// structurally; with requireGuardEdges (ghostbusters mode, where pins
// materialise as EdgeGuard control dependencies) each pinned chain
// must additionally be backed by a real guard→node EdgeGuard for every
// guard, and the pinned node must have no relaxable incoming edge left
// (it can no longer be scheduled speculatively).
func (a *AuditReport) Verify(b *Block, requireGuardEdges bool) error {
	if a.EntryPC != b.EntryPC {
		return fmt.Errorf("ir: audit report for block @%#x applied to block @%#x", a.EntryPC, b.EntryPC)
	}
	for i := range a.Poisoned {
		if err := a.verifyChain(b, "poisoned", &a.Poisoned[i]); err != nil {
			return err
		}
	}
	for i := range a.Pinned {
		c := &a.Pinned[i]
		if err := a.verifyChain(b, "pinned", c); err != nil {
			return err
		}
		if len(c.Guards) == 0 {
			return fmt.Errorf("ir: audit pinned chain for n%d: no guards", c.Node)
		}
		if !requireGuardEdges {
			continue
		}
		for _, g := range c.Guards {
			found := false
			for _, e := range b.Edges {
				if e.From == g.Node && e.To == c.Node && e.Kind == EdgeGuard {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("ir: audit pinned chain for n%d: no guard edge from n%d in block", c.Node, g.Node)
			}
		}
		if b.HasRelaxableIn(c.Node) {
			return fmt.Errorf("ir: audit pinned chain for n%d: node still has a relaxable incoming edge", c.Node)
		}
	}
	return nil
}

// Overlay converts the report into the Dot rendering overlay: poisoned
// nodes, pinned accesses and their guards.
func (a *AuditReport) Overlay() *DotOverlay {
	if a == nil {
		return nil
	}
	ov := &DotOverlay{
		Poisoned: make(map[int]bool, len(a.Poisoned)),
		Pinned:   make(map[int]bool, len(a.Pinned)),
		Guards:   make(map[int]bool),
	}
	for i := range a.Poisoned {
		ov.Poisoned[a.Poisoned[i].Node] = true
	}
	for i := range a.Pinned {
		c := &a.Pinned[i]
		ov.Pinned[c.Node] = true
		for _, g := range c.Guards {
			ov.Guards[g.Node] = true
		}
	}
	return ov
}
