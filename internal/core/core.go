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
	"math/bits"
	"slices"
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

// Analysis is the poison analysis's reusable memory. Every guard set —
// the guards an instruction could speculate across, the guards its
// poison derives from, a risky load's pins — is a bitset row over the
// block's instruction indices, and all of one block's rows share one
// flat []uint64. Rows iterate in ascending bit order, so every list the
// analysis derives from them comes out sorted without a sort.
//
// The zero value is ready to use, and a nil *Analysis analyses through
// fresh memory. A caller that analyses block after block through one
// Analysis stops allocating once it has grown to the largest block; the
// Report and pin lists AnalyzePins returns then live in the Analysis
// until its next use.
type Analysis struct {
	words int      // uint64 words in one row
	bits  []uint64 // rows 0..n-1: self guards; n..2n-1: poison; 2n: all pins
	// The report's lists, and the pin lists, which share pinBuf.
	poisoned, risky, guards, pinBuf []int
	pins                            [][]int
	provSrc, provPred               []int // audit provenance, see AnalyzePins
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// row returns bitset row r.
func (a *Analysis) row(r int) []uint64 {
	return a.bits[r*a.words : (r+1)*a.words : (r+1)*a.words]
}

// or sets dst to dst ∪ src.
func or(dst, src []uint64) {
	for k, w := range src {
		dst[k] |= w
	}
}

// empty reports whether row r holds no index.
func empty(r []uint64) bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// appendSet appends the indices in row r to out, in ascending order.
func appendSet(out []int, r []uint64) []int {
	for k, w := range r {
		for w != 0 {
			out = append(out, k*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Analyze runs the poison analysis without modifying the block and
// returns the detection report (used by tests and the ablation
// benchmarks).
func Analyze(b *ir.Block) Report {
	rep, _ := new(Analysis).AnalyzePins(b, nil)
	return rep
}

// AnalyzePins runs the poison analysis and additionally returns, for
// every risky load, the sorted guard list the mitigation must order it
// after: pins[k] belongs to rep.RiskyLoads[k]. Every mitigation pass in
// internal/core/pipeline builds on this entry point.
//
// With a non-nil aud it additionally records, for every instruction the
// poison reaches, where the poison came from — the source speculative
// load and the operand step it arrived through — and assembles the
// provenance chains of the audit report. When poison reaches a node
// through more than one operand the chain records one witness path
// (A-then-B operand order), not every path.
func (a *Analysis) AnalyzePins(b *ir.Block, aud *ir.AuditReport) (rep Report, pins [][]int) {
	if a == nil {
		a = new(Analysis)
	}
	n := len(b.Insts)
	a.words = (n + 63) / 64
	a.bits = resize(a.bits, (2*n+1)*a.words)
	clear(a.bits)
	self := a.row
	poison := func(i int) []uint64 { return a.row(n + i) }
	allPins := a.row(2 * n)

	// Provenance shadow state, kept only when auditing: provSrc[i] is
	// the source speculative load whose poison reached i (-1 when i is
	// clean), provPred[i] the operand producer the poison stepped
	// through to get here (-1 at the source itself).
	var provSrc, provPred []int
	if aud != nil {
		provSrc, provPred = resize(a.provSrc, n), resize(a.provPred, n)
		a.provSrc, a.provPred = provSrc, provPred
		for i := range provSrc {
			provSrc[i], provPred[i] = -1, -1
		}
	}

	// self(i): guards instruction i could speculate across (sources of
	// its relaxable in-edges). Only loads generate poison (paper:
	// "Speculative instructions can be either load instructions moved
	// before a conditional branch or load instructions moved before a
	// memory write").
	for _, e := range b.Edges {
		if e.Relaxable && b.Insts[e.To].IsLoad() {
			self(e.To)[e.From/64] |= 1 << (e.From % 64)
		}
	}

	// operandPoison returns the poison row of an operand, nil (an empty
	// row) when it reads no instruction.
	operandPoison := func(op ir.Operand) []uint64 {
		if op.Kind == ir.OpInst {
			return poison(op.Inst)
		}
		return nil
	}

	risky := a.risky[:0]
	for i := range b.Insts {
		in := &b.Insts[i]
		p := poison(i)
		addr := operandPoison(in.A)
		if in.IsLoad() && !empty(self(i)) {
			rep.SpeculativeLoads++
			if !empty(addr) {
				// The Spectre pattern: a speculative memory access whose
				// address is poisoned. Pin it behind the guards that
				// poisoned the address and behind its own guards: self(i)
				// becomes its pin set. Once ordered after its guards,
				// the load reads architecturally-correct data: its value
				// stays clean.
				or(self(i), addr)
				or(allPins, self(i))
				risky = append(risky, i)
				continue
			}
			// Clean-address speculative load: its value is poisoned.
			copy(p, self(i))
			if aud != nil {
				provSrc[i], provPred[i] = i, -1 // poison originates here
			}
			continue
		}
		or(p, addr)
		if !in.IsLoad() { // a load's B operand is unused; stores leak via address only
			or(p, operandPoison(in.B))
		}
		if aud != nil && !empty(p) {
			// The witness step the poison took to reach i: the first
			// poisoned operand in A-then-B order.
			if in.A.Kind == ir.OpInst && !empty(poison(in.A.Inst)) {
				provSrc[i], provPred[i] = provSrc[in.A.Inst], in.A.Inst
			} else if in.B.Kind == ir.OpInst && !empty(poison(in.B.Inst)) {
				provSrc[i], provPred[i] = provSrc[in.B.Inst], in.B.Inst
			}
		}
	}
	a.risky = risky
	rep.RiskyLoads = risky

	poisoned := a.poisoned[:0]
	for i := 0; i < n; i++ {
		if !empty(poison(i)) {
			poisoned = append(poisoned, i)
		}
	}
	a.poisoned = poisoned
	rep.Poisoned, rep.PoisonedInsts = poisoned, len(poisoned)
	a.guards = appendSet(a.guards[:0], allPins)
	rep.Guards = a.guards

	pinBuf, pins := a.pinBuf[:0], a.pins[:0]
	for _, load := range risky {
		start := len(pinBuf)
		pinBuf = appendSet(pinBuf, self(load)) // its pin set
		pins = append(pins, pinBuf[start:len(pinBuf):len(pinBuf)])
	}
	a.pinBuf, a.pins = pinBuf, pins

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
			c.Guards = guardRefs(b, poison(i))
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
			c.Guards = guardRefs(b, self(load)) // its pin set
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

// guardRefs renders a guard-set row as sorted, classified references.
func guardRefs(b *ir.Block, g []uint64) []ir.GuardRef {
	guards := appendSet(nil, g)
	out := make([]ir.GuardRef, 0, len(guards))
	for _, n := range guards {
		in := &b.Insts[n]
		kind := ir.GuardBranch
		if in.IsStore() {
			kind = ir.GuardStore
		}
		out = append(out, ir.GuardRef{Node: n, PC: in.PC, Op: in.Op.String(), Kind: kind})
	}
	return out
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
