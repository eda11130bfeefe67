// Package core implements the paper's primary contribution: the
// GhostBusters mitigation of Spectre attacks on a DBT-based processor
// (Rokicki, DATE 2020, Section IV).
//
// Before instruction scheduling, the DBT engine runs a poisoning
// analysis over the data-flow graph of the block it is about to
// optimise:
//
//  1. every load that could be scheduled speculatively — hoisted above a
//     conditional branch (trace scheduling) or above a store with an
//     unprovably-disjoint address (memory dependency speculation) —
//     generates a *poisoned* value;
//  2. any instruction using a poisoned operand produces a poisoned value;
//  3. a speculative memory access whose *address* is poisoned is the
//     Spectre leak pattern: it would push a secret-dependent line into
//     the data cache while misspeculating.
//
// Where the pattern is found, the mitigation inserts a control
// dependency between the risky access and the instructions that cause
// the speculation (the guards), pinning only that access — everything
// else in the block keeps speculating, which is why the countermeasure
// is nearly free. This package owns the mode table (each mode's name
// and whether Figure 4 compares it), the analysis (AnalyzePins) and the
// pinning primitive (PinRisky). Each mode's mitigation — the paper's
// approach, the three baselines it compares against and the three
// ported from the related work — is one function in
// internal/core/pipeline over the block's one analysis result.
//
// Because a DBT engine only speculates inside one IR block, the whole
// analysis is block-local (contrast with whole-binary tools like oo7).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ghostbusters/internal/ir"
)

// Mode selects the mitigation strategy applied to each block before
// scheduling.
type Mode uint8

const (
	// ModeUnsafe performs no analysis: full speculation (the paper's
	// baseline, vulnerable to both Spectre variants).
	ModeUnsafe Mode = iota
	// ModeGhostBusters runs the poison analysis and pins only the risky
	// accesses with fine-grained control dependencies (the paper's
	// contribution, "our approach" in Fig. 4).
	ModeGhostBusters
	// ModeFence runs the same detection but, where a pattern is found,
	// forbids all speculation across the guard (the paper's third
	// experiment: "a fence whenever the Spectre pattern is detected").
	ModeFence
	// ModeNoSpeculation disables both speculation mechanisms globally
	// (the paper's naive countermeasure, "No speculation" in Fig. 4).
	ModeNoSpeculation

	// The modes below are alternative mitigations ported from the
	// related work (internal/core/pipeline); they are not part of the
	// paper's Figure 4 comparison.

	// ModeLoadFence pins every load (no load ever executes
	// speculatively) — the blanket LOADLFENCE strawman: analysis-free,
	// safe, and between ghostbusters and nospec in cost.
	ModeLoadFence
	// ModeSFIClamp clamps the address of each risky access with an
	// inserted predicate/mask chain (Venkman/Swivel-style SFI, SLH's
	// masking applied to the DBT IR); the access keeps speculating with
	// a harmless address. Store-guarded (v4) patterns fall back to
	// ghostbusters pinning.
	ModeSFIClamp
	// ModeFenceMin places the minimal set of pins that cuts every
	// source→sink path in the poison data-flow graph (Blade-style
	// min-cut) instead of pinning every sink.
	ModeFenceMin
)

// modes is the mode table: each mode's name (as CLIs, config
// fingerprints and reports spell it) and whether the paper's Figure 4
// compares it. The byte-identity and -checkperf gates cover exactly the
// Figure 4 modes. Each mode's mitigation function sits in the array of
// the same index in internal/core/pipeline.
var modes = [...]struct {
	name string
	fig4 bool
}{
	ModeUnsafe:        {"unsafe", true},
	ModeGhostBusters:  {"ghostbusters", true},
	ModeFence:         {"fence", true},
	ModeNoSpeculation: {"nospec", true},
	ModeLoadFence:     {"loadfence", false},
	ModeSFIClamp:      {"sfi-clamp", false},
	ModeFenceMin:      {"fence-min", false},
}

// Valid reports whether m is in the mode table.
func (m Mode) Valid() bool { return int(m) < len(modes) }

func (m Mode) String() string {
	if m.Valid() {
		return modes[m].name
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Modes returns every mode in mode-value order. Harness matrices,
// torture tests and the leakage matrix derive their mode lists from
// this, so a mode added to the table appears everywhere.
func Modes() []Mode {
	out := make([]Mode, len(modes))
	for i := range modes {
		out[i] = Mode(i)
	}
	return out
}

// Fig4Modes returns the modes the paper's Figure 4 compares, in
// mode-value order.
func Fig4Modes() []Mode {
	var out []Mode
	for i, e := range modes {
		if e.fig4 {
			out = append(out, Mode(i))
		}
	}
	return out
}

// ParseMode resolves a mode name used by CLIs and config files.
func ParseMode(s string) (Mode, error) {
	names := make([]string, len(modes))
	for i, e := range modes {
		if e.name == s {
			return Mode(i), nil
		}
		names[i] = e.name
	}
	return 0, fmt.Errorf("core: unknown mitigation mode %q (want %s)", s, strings.Join(names, "|"))
}

// ParseModes resolves a list of mode names (surrounding space trimmed),
// keeping their order and rejecting a mode listed twice.
func ParseModes(names []string) ([]Mode, error) {
	out := make([]Mode, 0, len(names))
	for _, name := range names {
		m, err := ParseMode(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, m) {
			return nil, fmt.Errorf("core: mitigation mode %s listed twice", m)
		}
		out = append(out, m)
	}
	return out, nil
}

// Report describes what the analysis found and changed in one block.
type Report struct {
	// SpeculativeLoads counts loads the scheduler could execute
	// speculatively (at least one relaxable incoming edge).
	SpeculativeLoads int
	// PoisonedInsts counts instructions whose value may derive from a
	// misspeculated load.
	PoisonedInsts int
	// Poisoned lists the instructions whose values may derive from a
	// misspeculated load, in program order (for Fig. 3-style rendering
	// via ir.Block.Dot).
	Poisoned []int
	// RiskyLoads lists the instructions matching the Spectre pattern
	// (speculative memory access with poisoned address), in program
	// order.
	RiskyLoads []int
	// Guards lists the instructions causing the speculation of the risky
	// loads (branches and stores), in program order.
	Guards []int
	// GuardEdges counts control dependencies inserted by the mitigation.
	GuardEdges int
}

// PatternFound reports whether the block contains the Spectre pattern.
func (r Report) PatternFound() bool { return len(r.RiskyLoads) > 0 }

// guardSet is a small set of instruction indices.
type guardSet map[int]struct{}

func (g guardSet) union(o guardSet) guardSet {
	if len(o) == 0 {
		return g
	}
	if g == nil {
		g = make(guardSet, len(o))
	}
	for k := range o {
		g[k] = struct{}{}
	}
	return g
}

// Analyze runs the poison analysis without modifying the block and
// returns the detection report (used by tests and the ablation
// benchmarks).
func Analyze(b *ir.Block) Report {
	rep, _ := analyze(b, nil)
	return rep
}

// analyze computes the report plus, for every risky load, the guard set
// that must order it. With a non-nil aud it additionally records, for
// every instruction the poison reaches, where the poison came from —
// the source speculative load and the operand step it arrived through —
// and assembles the provenance chains of the audit report. When poison
// reaches a node through more than one operand the chain records one
// witness path (A-then-B operand order), not every path.
func analyze(b *ir.Block, aud *ir.AuditReport) (Report, map[int]guardSet) {
	var rep Report

	// Provenance shadow state, allocated only when auditing:
	// provSrc[i] is the source speculative load whose poison reached i
	// (-1 when i is clean), provPred[i] the operand producer the poison
	// stepped through to get here (-1 at the source itself).
	var provSrc, provPred []int
	if aud != nil {
		provSrc = make([]int, len(b.Insts))
		provPred = make([]int, len(b.Insts))
		for i := range provSrc {
			provSrc[i], provPred[i] = -1, -1
		}
	}

	// selfGuards[i]: guards instruction i could speculate across
	// (sources of its relaxable in-edges). Only loads generate poison
	// (paper: "Speculative instructions can be either load instructions
	// moved before a conditional branch or load instructions moved
	// before a memory write").
	selfGuards := make([]guardSet, len(b.Insts))
	for _, e := range b.Edges {
		if !e.Relaxable {
			continue
		}
		if !b.Insts[e.To].IsLoad() {
			continue
		}
		if selfGuards[e.To] == nil {
			selfGuards[e.To] = make(guardSet)
		}
		selfGuards[e.To][e.From] = struct{}{}
	}

	poison := make([]guardSet, len(b.Insts))
	pins := make(map[int]guardSet)
	operandPoison := func(op ir.Operand) guardSet {
		if op.Kind == ir.OpInst {
			return poison[op.Inst]
		}
		return nil
	}

	for i := range b.Insts {
		in := &b.Insts[i]
		var p guardSet
		p = p.union(operandPoison(in.A))
		if !in.IsLoad() { // a load's B operand is unused; stores leak via address only
			p = p.union(operandPoison(in.B))
		}

		if in.IsLoad() && len(selfGuards[i]) > 0 {
			rep.SpeculativeLoads++
			if len(operandPoison(in.A)) > 0 {
				// The Spectre pattern: a speculative memory access whose
				// address is poisoned. Pin it behind the guards that
				// poisoned the address and behind its own guards.
				g := make(guardSet)
				g = g.union(operandPoison(in.A))
				g = g.union(selfGuards[i])
				pins[i] = g
				rep.RiskyLoads = append(rep.RiskyLoads, i)
				// Once ordered after its guards, the load reads
				// architecturally-correct data: its value is clean.
				poison[i] = nil
				continue
			}
			// Clean-address speculative load: its value is poisoned.
			p = p.union(selfGuards[i])
			if aud != nil {
				provSrc[i], provPred[i] = i, -1 // poison originates here
			}
			poison[i] = p
			continue
		}
		if aud != nil && len(p) > 0 {
			// The witness step the poison took to reach i: the first
			// poisoned operand in A-then-B order.
			if in.A.Kind == ir.OpInst && len(poison[in.A.Inst]) > 0 {
				provSrc[i], provPred[i] = provSrc[in.A.Inst], in.A.Inst
			} else if in.B.Kind == ir.OpInst && len(poison[in.B.Inst]) > 0 {
				provSrc[i], provPred[i] = provSrc[in.B.Inst], in.B.Inst
			}
		}
		poison[i] = p
	}

	for i, p := range poison {
		if len(p) > 0 {
			rep.PoisonedInsts++
			rep.Poisoned = append(rep.Poisoned, i)
		}
	}
	guards := make(guardSet)
	for _, g := range pins {
		guards = guards.union(g)
	}
	rep.Guards = sortedKeys(guards)

	if aud != nil {
		aud.EntryPC = b.EntryPC
		for i := range b.Insts {
			if b.Insts[i].IsLoad() {
				aud.LoadsAnalyzed++
			}
		}
		aud.SpeculativeLoads = rep.SpeculativeLoads
		aud.RelaxedLoads = rep.SpeculativeLoads - len(rep.RiskyLoads)
		for _, i := range rep.Poisoned {
			c := chainTo(b, provSrc, provPred, i)
			c.Guards = guardRefs(b, poison[i])
			aud.Poisoned = append(aud.Poisoned, c)
		}
		for _, load := range rep.RiskyLoads {
			// The pinned access's chain runs through its poisoned
			// address operand and ends at the access itself.
			c := chainTo(b, provSrc, provPred, b.Insts[load].A.Inst)
			c.Path = append(c.Path, load)
			c.Node = load
			c.PC = b.Insts[load].PC
			c.Op = b.Insts[load].Op.String()
			c.Guards = guardRefs(b, pins[load])
			aud.Pinned = append(aud.Pinned, c)
		}
	}
	return rep, pins
}

// chainTo reconstructs the witness provenance path ending at node i by
// walking the recorded predecessor steps back to the source load.
func chainTo(b *ir.Block, provSrc, provPred []int, i int) ir.ProvenanceChain {
	path := []int{i}
	for j := i; provPred[j] >= 0; j = provPred[j] {
		path = append(path, provPred[j])
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return ir.ProvenanceChain{
		Node:   i,
		PC:     b.Insts[i].PC,
		Op:     b.Insts[i].Op.String(),
		Source: provSrc[i],
		Path:   path,
	}
}

// guardRefs renders a guard set as sorted, classified references.
func guardRefs(b *ir.Block, g guardSet) []ir.GuardRef {
	out := make([]ir.GuardRef, 0, len(g))
	for _, n := range sortedKeys(g) {
		in := &b.Insts[n]
		kind := ir.GuardBranch
		if in.IsStore() {
			kind = ir.GuardStore
		}
		out = append(out, ir.GuardRef{Node: n, PC: in.PC, Op: in.Op.String(), Kind: kind})
	}
	return out
}

func sortedKeys(g guardSet) []int {
	out := make([]int, 0, len(g))
	for k := range g {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// AnalyzePins runs the poison analysis and additionally returns, for
// every risky load, the sorted guard list the mitigation must order it
// after. aud may be nil (no provenance bookkeeping). Every mitigation
// pass in internal/core/pipeline builds on this entry point.
func AnalyzePins(b *ir.Block, aud *ir.AuditReport) (Report, map[int][]int) {
	rep, pins := analyze(b, aud)
	out := make(map[int][]int, len(pins))
	for load, g := range pins {
		out[load] = sortedKeys(g)
	}
	return rep, out
}

// PinRisky applies the ghostbusters treatment to one risky load: the
// load is made non-speculative and receives a hard guard edge from
// every listed guard (deduplicated). It returns the number of guard
// edges inserted. guards must be in the order edges should append —
// callers pass sorted lists so b.Edges stays deterministic.
func PinRisky(b *ir.Block, load int, guards []int) int {
	b.PinInto(load)
	added := 0
	for _, g := range guards {
		if !hasGuardEdge(b, g, load) {
			b.AddEdge(ir.Edge{From: g, To: load, Kind: ir.EdgeGuard})
			added++
		}
	}
	return added
}

func hasGuardEdge(b *ir.Block, from, to int) bool {
	for _, e := range b.Edges {
		if e.Kind == ir.EdgeGuard && e.From == from && e.To == to {
			return true
		}
	}
	return false
}
