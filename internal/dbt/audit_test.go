package dbt

import (
	"encoding/json"
	"strings"
	"testing"

	"ghostbusters/internal/core"
)

// auditGadgetSrc runs the Fig. 1 gadget hot enough to be translated
// (and trace-formed), so the machine-wide audit has real regions to
// explain: an in-bounds loop around a bounds check feeding a dependent
// load.
const auditGadgetSrc = `
main:
	la s0, buffer
	la s1, arrayVal
	li t0, 16
	li s2, 200
	li s3, 0
loop:
	andi a0, s3, 15
	bgeu a0, t0, skip
	add t1, s0, a0
	lbu t2, 0(t1)
	slli t2, t2, 7
	add t3, s1, t2
	lbu t4, 0(t3)
skip:
	addi s3, s3, 1
	blt s3, s2, loop
	li a0, 0
	ecall

	.data
buffer:
	.space 16
arrayVal:
	.space 32768
`

func runAudited(t *testing.T, mode core.Mode) (*Machine, *Audit) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mitigation = mode
	cfg.Audit = true
	_, m := runSrc(t, auditGadgetSrc, cfg)
	aud := m.Audit()
	if aud == nil {
		t.Fatal("Machine.Audit() nil with Config.Audit set")
	}
	return m, aud
}

// The acceptance cross-check: every pinned access in every translated
// region must be explained by a provenance chain that replays against
// the retained IR block — including the guard edges the mitigation
// inserted.
func TestAuditExplainsEveryPinnedAccess(t *testing.T) {
	m, aud := runAudited(t, core.ModeGhostBusters)
	if len(aud.Blocks) == 0 {
		t.Fatal("no audited regions — gadget never got hot?")
	}
	tot := aud.Totals()
	if tot.Pinned == 0 {
		t.Fatal("gadget produced no pinned accesses")
	}
	// The machine-wide pinned count must agree with the stats counter
	// for currently-installed regions being a subset of all
	// translations ever (trace upgrades replace entries).
	if m.stats.RiskyLoads < tot.Pinned {
		t.Fatalf("audit pinned %d > stats risky loads %d", tot.Pinned, m.stats.RiskyLoads)
	}
	if err := aud.Verify(); err != nil {
		t.Fatalf("audit replay failed: %v", err)
	}
	for _, b := range aud.Blocks {
		for i := range b.Report.Pinned {
			c := &b.Report.Pinned[i]
			if len(c.Path) < 2 || len(c.Guards) == 0 {
				t.Fatalf("pinned chain without path/guards in block @%#x: %+v", b.PC, c)
			}
		}
	}
	// Depth histogram covers every chain.
	chains := 0
	for _, n := range tot.DepthHist {
		chains += n
	}
	if chains != tot.Poisoned+tot.Pinned {
		t.Fatalf("depth histogram covers %d chains, want %d", chains, tot.Poisoned+tot.Pinned)
	}
}

// Audits replay in every mitigation mode (guard edges required only in
// ghostbusters mode).
func TestAuditAllModes(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation} {
		_, aud := runAudited(t, mode)
		if err := aud.Verify(); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

// Auditing off: nothing retained, Audit() reports nil.
func TestAuditDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mitigation = core.ModeGhostBusters
	_, m := runSrc(t, auditGadgetSrc, cfg)
	if m.Audit() != nil {
		t.Fatal("Audit() non-nil with auditing off")
	}
	for pc, ps := range m.pcs {
		if e := ps.e; e != nil && (e.audit != nil || e.auditIR != nil) {
			t.Fatalf("entry @%#x retained audit state with auditing off", pc)
		}
	}
}

// The JSON document: stable schema tag, totals consistent with the
// aggregation, valid JSON round-trip.
func TestAuditDocSchema(t *testing.T) {
	_, aud := runAudited(t, core.ModeGhostBusters)
	doc := aud.Doc()
	if doc.Schema != "ghostbusters/audit/v1" {
		t.Fatalf("schema = %q, want the stable ghostbusters/audit/v1 tag", doc.Schema)
	}
	if doc.Mode != "ghostbusters" {
		t.Fatalf("mode = %q", doc.Mode)
	}
	tot := aud.Totals()
	if doc.Totals.Pinned != tot.Pinned || doc.Totals.LoadsAnalyzed != tot.LoadsAnalyzed {
		t.Fatalf("doc totals %+v disagree with %+v", doc.Totals, tot)
	}
	if len(doc.Blocks) != len(aud.Blocks) {
		t.Fatalf("doc has %d blocks, audit %d", len(doc.Blocks), len(aud.Blocks))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back AuditDoc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("audit doc does not round-trip: %v", err)
	}
	if back.Totals.DepthHist == nil {
		t.Fatal("depth_hist lost in round-trip")
	}
}

// The human-readable table names every pinned access with its chain.
func TestAuditFormat(t *testing.T) {
	_, aud := runAudited(t, core.ModeGhostBusters)
	out := aud.Format()
	for _, want := range []string{"audit mode=ghostbusters", "provenance depth histogram:", "pinned n", "addr poisoned by", "guards:", "(branch)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit table missing %q:\n%s", want, out)
		}
	}
}

// DumpIR renders the audited overlay under the machine's own
// mitigation mode: pinned nodes and guard edges visible in
// ghostbusters mode.
func TestDumpIROverlay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mitigation = core.ModeGhostBusters
	_, m := runSrc(t, auditGadgetSrc, cfg)
	var pc uint64
	for _, cand := range m.TranslatedPCs() {
		pc = cand
		break
	}
	found := false
	for _, cand := range m.TranslatedPCs() {
		dot, err := m.DumpIR(cand)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(dot, "[pinned]") && strings.Contains(dot, "color=red, style=dashed") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no translated region renders a pinned overlay (first pc %#x)", pc)
	}
}

// gbdump -dot must be reproducible: repeated dumps of the same region
// under every registered mitigation are byte-identical — including the
// passes that insert instructions or pin multi-guard loads, where a
// stray map iteration would reorder nodes or edges.
func TestDumpIRDeterministic(t *testing.T) {
	for _, mode := range core.Modes() {
		cfg := DefaultConfig()
		cfg.Mitigation = mode
		_, m := runSrc(t, auditGadgetSrc, cfg)
		pcs := m.TranslatedPCs()
		if len(pcs) == 0 {
			t.Fatalf("%s: nothing translated", mode)
		}
		for _, pc := range pcs {
			first, err := m.DumpIR(pc)
			if err != nil {
				t.Fatalf("%s @%#x: %v", mode, pc, err)
			}
			for i := 0; i < 3; i++ {
				again, err := m.DumpIR(pc)
				if err != nil {
					t.Fatalf("%s @%#x: %v", mode, pc, err)
				}
				if again != first {
					t.Fatalf("%s @%#x: dump %d differs from the first", mode, pc, i)
				}
			}
		}
	}
}

// DumpIR renders the region the DBT engine installed, not a longer one:
// a basic block stops at the engine's block cap even when MaxTraceInsts
// allows more. The loop body is 60 single-node addi instructions, so the
// block the engine installs at the loop head is the cap's worth of them
// and every rendered IR node stands for one guest instruction.
func TestDumpIRBasicBlockLength(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main:\n\tli s2, 0\nloop:\n")
	for i := 0; i < 60; i++ {
		sb.WriteString("\taddi s1, s1, 1\n")
	}
	sb.WriteString("\taddi s2, s2, 1\n\tli t0, 50\n\tblt s2, t0, loop\n\tli a0, 0\n\tecall\n")
	cfg := DefaultConfig()
	cfg.MaxTraceInsts = 96
	cfg.DisableTraces = true
	_, m := runSrc(t, sb.String(), cfg)
	const loopPC = 0x10004
	blk := m.BlockAt(loopPC)
	if blk == nil {
		t.Fatalf("loop head %#x not translated (have %#x)", loopPC, m.TranslatedPCs())
	}
	if blk.GuestInsts != maxBlockInsts {
		t.Fatalf("installed block covers %d guest insts, want the %d-inst cap", blk.GuestInsts, maxBlockInsts)
	}
	dot, err := m.DumpIR(loopPC)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := strings.Count(dot, ": addi"); nodes != blk.GuestInsts || strings.Count(dot, "[label=\"n") != nodes {
		t.Fatalf("DumpIR renders %d nodes (%d addi), installed block covers %d guest insts",
			strings.Count(dot, "[label=\"n"), nodes, blk.GuestInsts)
	}
}
