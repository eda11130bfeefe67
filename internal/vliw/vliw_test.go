package vliw

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

func newTestBus() *bus.Bus {
	return &bus.Bus{Mem: guestmem.New(0x10000, 1<<20), DC: cache.MustNew(cache.DefaultConfig())}
}

// pad fills a bundle to the config width with nops.
func pad(cfg Config, sylls ...Syllable) Bundle {
	b := make(Bundle, cfg.Width())
	copy(b, sylls)
	return b
}

func TestExecStraightLineALU(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{
		EntryPC: 0x100,
		FallPC:  0x200,
		Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KMovI, Dst: 5, Imm: 7},
				Syllable{Kind: KMovI, Dst: 6, Imm: 5}),
			pad(cfg, Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 7, Ra: 5, Rb: 6}),
			pad(cfg, Syllable{Kind: KAluRI, Op: riscv.SLLI, Dst: 8, Ra: 7, Imm: 2}),
		},
		GuestInsts: 4,
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	b := newTestBus()
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatalf("fault: %v", ei.Fault)
	}
	if ei.NextPC != 0x200 {
		t.Fatalf("NextPC = %#x", ei.NextPC)
	}
	if regs[7] != 12 || regs[8] != 48 {
		t.Fatalf("regs: r7=%d r8=%d", regs[7], regs[8])
	}
	if cycles != 3 {
		t.Fatalf("cycles = %d, want 3 (one per bundle)", cycles)
	}
	if c.Instret != 4 {
		t.Fatalf("instret = %d", c.Instret)
	}
}

func TestExecBundleReadsPreBundleState(t *testing.T) {
	// Swap two registers in one bundle: both reads must sample pre-bundle
	// values (the VLIW lockstep semantics).
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg,
			Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 6},
			Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 6, Ra: 5}),
	}}.pack()
	var regs [NumRegs]uint64
	regs[5], regs[6] = 111, 222
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[5] != 222 || regs[6] != 111 {
		t.Fatalf("swap failed: r5=%d r6=%d", regs[5], regs[6])
	}
}

func TestExecDoubleWriteFaults(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg,
			Syllable{Kind: KMovI, Dst: 5, Imm: 1},
			Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault == nil {
		t.Fatal("double write in bundle must fault")
	}
}

func TestExecLoadStoreAndMissStall(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 0xCAFE)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 5, Imm: 0x20000}),
		pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 6, Ra: 5}),          // miss
		pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 5}),          // hit
		pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 5, Rb: 6, Imm: 64}), // miss
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[6] != 0xCAFE || regs[7] != 0xCAFE {
		t.Fatalf("loads: r6=%#x r7=%#x", regs[6], regs[7])
	}
	v, _ := b.Mem.Read(0x20040, 8)
	if v != 0xCAFE {
		t.Fatalf("store result = %#x", v)
	}
	// 4 bundles + 2 miss stalls of 20.
	if cycles != 4+2*20 {
		t.Fatalf("cycles = %d, want 44", cycles)
	}
}

func TestExecSideExit(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KMovI, Dst: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
			pad(cfg, Syllable{Kind: KMovI, Dst: 6, Imm: 99}), // skipped
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil || !ei.SideExit || ei.NextPC != 0x500 {
		t.Fatalf("exit = %+v", ei)
	}
	if regs[6] == 99 {
		t.Fatal("bundle after exit executed")
	}
	if cycles != 2+cfg.ExitPenalty {
		t.Fatalf("cycles = %d", cycles)
	}
	if c.Stats.SideExits != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestExecBranchNotTakenFallsThrough(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
			pad(cfg, Syllable{Kind: KMovI, Dst: 6, Imm: 99}),
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.SideExit || ei.NextPC != 0x300 || regs[6] != 99 {
		t.Fatalf("ei=%+v r6=%d", ei, regs[6])
	}
}

func TestExecJumpR(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 1, Imm: 0x4242}),
		pad(cfg, Syllable{Kind: KJumpR, Ra: 1, Imm: 8}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.NextPC != 0x424A {
		t.Fatalf("NextPC = %#x", ei.NextPC)
	}
}

func TestExecDismissableLoadSquashAndCommitFault(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	// ldd from an unmapped address: squashed, poison set; commit faults.
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 40, Imm: 0x7FFFFFFF}),
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 40}),
		pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault == nil || !strings.Contains(ei.Fault.Error(), "poisoned") {
		t.Fatalf("want poison fault at commit, got %+v", ei)
	}
	if c.Stats.SpecSquash != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestExecDismissableLoadSquashDiscardedOnExit(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	// ldd squashes, but the side exit is taken before the commit: the
	// squashed fault disappears, exactly like misspeculation.
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 0, Imm: 0x7FFFFF00},
				Syllable{Kind: KMovI, Dst: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41}),
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil || !ei.SideExit {
		t.Fatalf("ei = %+v", ei)
	}
}

func TestExecDismissableLoadFillsCache(t *testing.T) {
	// The microarchitectural leak: a dismissable load of protected data
	// succeeds (value flows) and fills the cache line.
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x30000, 8, 42)
	b.Mem.Protect(0x30000, 0x30008)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 0, Imm: 0x30000}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[41] != 42 {
		t.Fatalf("r41 = %d, want the protected value", regs[41])
	}
	if !b.DC.Probe(0x30000) {
		t.Fatal("dismissable load did not fill the cache")
	}
}

// MCB flow: lds hoisted above a store to the same address; chk triggers
// recovery which re-loads the corrected value.
func TestExecMCBConflictRecovery(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 1) // old value

	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			// speculative load (hoisted above the store), reads old value
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 0},
				Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
			// dependent compute
			pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 100}),
			// the store the load was hoisted above: same address -> conflict
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 5, Imm: 0x20000}),
			// chk at the load's original position
			pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 0}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41}),
		},
		Recoveries: [][]Syllable{{
			{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
			{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 100},
		}},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[6] != 102 {
		t.Fatalf("r6 = %d, want 102 (recovered store value + 100)", regs[6])
	}
	if c.Stats.Recoveries != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// No conflict: chk validates silently, speculative value stands.
func TestExecMCBNoConflict(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 7)
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 3},
				Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 5, Imm: 0x20040}),
			pad(cfg, Syllable{Kind: KChk, Tag: 3, Rec: 0}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 40}),
		},
		Recoveries: [][]Syllable{{
			{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
		}},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[6] != 7 {
		t.Fatalf("r6 = %d", regs[6])
	}
	if c.Stats.Recoveries != 0 {
		t.Fatalf("unexpected recovery: %+v", c.Stats)
	}
}

func TestExecMCBOutstandingAtExitFaults(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x10000, Tag: 0}),
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault == nil {
		t.Fatal("unconsumed MCB entry at fallthrough must fault (codegen invariant)")
	}
}

func TestExecSideExitClearsMCB(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x10000, Tag: 0},
				Syllable{Kind: KMovI, Dst: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil || !ei.SideExit {
		t.Fatalf("ei = %+v", ei)
	}
	if c.MCB.Outstanding() != 0 {
		t.Fatal("MCB not cleared on side exit")
	}
}

func TestExecRdcycleObservesStalls(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KCsr, Dst: 5, Imm: riscv.CSRCycle}),
			pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 6, Ra: 0, Imm: 0x10000}), // miss
			pad(cfg, Syllable{Kind: KCsr, Dst: 7, Imm: riscv.CSRCycle}),
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	delta := regs[7] - regs[5]
	if delta < 20 {
		t.Fatalf("rdcycle delta = %d, want >= miss penalty", delta)
	}
}

func TestExecFlush(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	b.DC.Access(0x10000)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 5, Imm: 0x10000}),
		pad(cfg, Syllable{Kind: KFlush, Op: riscv.CFLUSH, Ra: 5}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if b.DC.Probe(0x10000) {
		t.Fatal("flush did not evict")
	}
	// flushall
	b.DC.Access(0x10000)
	blk2 := testBlock{Bundles: []Bundle{pad(cfg, Syllable{Kind: KFlush, Op: riscv.CFLUSHALL})}}.pack()
	if ei := c.Exec(blk2, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if b.DC.Probe(0x10000) {
		t.Fatal("flushall did not evict")
	}
}

func TestExecArchUseOfPoisonFaults(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(use Syllable) *Block {
		return testBlock{Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x7FFFFF00}), // squash
			pad(cfg, use),
		}}.pack()
	}
	uses := []Syllable{
		{Kind: KStore, Op: riscv.SD, Ra: 40, Rb: 0, Imm: 0},
		{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 40, Imm: 0x10000},
		{Kind: KBrExit, Op: riscv.BEQ, Ra: 40, Rb: 0, Imm: 0x500},
		{Kind: KJumpR, Ra: 40},
		{Kind: KLoad, Op: riscv.LD, Dst: 6, Ra: 40},
		{Kind: KFlush, Op: riscv.CFLUSH, Ra: 40},
	}
	for i, u := range uses {
		c := MustNewCore(cfg)
		var regs [NumRegs]uint64
		var cycles uint64
		if ei := c.Exec(mk(u), &regs, newTestBus(), &cycles); ei.Fault == nil {
			t.Errorf("use %d (%s): poisoned architectural use must fault", i, u)
		}
	}
}

func TestExecPoisonPropagatesThroughALU(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x7FFFFF00}),
		pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 1}),
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 42, Ra: 41}), // poisoned addr: squash again
		pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 42}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault == nil || !strings.Contains(ei.Fault.Error(), "poisoned") {
		t.Fatalf("want poison fault, got %+v", ei)
	}
	if c.Stats.SpecSquash != 2 {
		t.Fatalf("squash count = %d, want 2", c.Stats.SpecSquash)
	}
}

func TestConfigValidateAndVariants(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), WideConfig(), NarrowConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config invalid: %v", err)
		}
	}
	bad := Config{Slots: []SlotCap{CapALU}, LatALU: 1, LatLoad: 3}
	if bad.Validate() == nil {
		t.Error("config without mem/mul/branch slots must be invalid")
	}
	if (&Config{}).Validate() == nil {
		t.Error("empty config must be invalid")
	}
}

func TestLatencyTable(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		s    Syllable
		want uint64
	}{
		{Syllable{Kind: KAluRR, Op: riscv.ADD}, cfg.LatALU},
		{Syllable{Kind: KAluRR, Op: riscv.MUL}, cfg.LatMul},
		{Syllable{Kind: KAluRR, Op: riscv.DIV}, cfg.LatDiv},
		{Syllable{Kind: KLoad, Op: riscv.LD}, cfg.LatLoad},
		{Syllable{Kind: KLoadS, Op: riscv.LW}, cfg.LatLoad},
		{Syllable{Kind: KMovI}, cfg.LatALU},
	}
	for _, c := range cases {
		if got := cfg.Latency(&c.s); got != c.want {
			t.Errorf("Latency(%s) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestCapFor(t *testing.T) {
	if CapFor(KLoad, riscv.LD) != CapMem {
		t.Error("mem caps wrong")
	}
	if CapFor(KChk, 0) != CapALU {
		t.Error("chk should use the MCB's own port (ALU slot)")
	}
	if CapFor(KAluRR, riscv.MUL) != CapMul || CapFor(KAluRR, riscv.DIVU) != CapMul {
		t.Error("mul caps wrong")
	}
	if CapFor(KBrExit, riscv.BEQ) != CapBranch || CapFor(KJumpR, 0) != CapBranch {
		t.Error("branch caps wrong")
	}
	if CapFor(KAluRI, riscv.ADDI) != CapALU || CapFor(KCommit, 0) != CapALU {
		t.Error("alu caps wrong")
	}
}

func TestMCBUnit(t *testing.T) {
	var m MCB
	if err := m.Insert(0, 0x100, 8, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(0, 0x200, 8, false); err == nil {
		t.Fatal("double insert must error")
	}
	m.StoreCheck(0x104, 4) // overlaps
	conflict, faulted, err := m.Consume(0)
	if err != nil || !conflict || faulted {
		t.Fatalf("consume = %v %v %v", conflict, faulted, err)
	}
	if _, _, err := m.Consume(0); err == nil {
		t.Fatal("double consume must error")
	}
	// Non-overlapping store.
	_ = m.Insert(1, 0x100, 4, false)
	m.StoreCheck(0x104, 4)
	if conflict, _, _ := m.Consume(1); conflict {
		t.Fatal("adjacent store flagged as conflict")
	}
	// Faulted entries report faulted.
	_ = m.Insert(2, 0, 8, true)
	if _, faulted, _ := m.Consume(2); !faulted {
		t.Fatal("faulted flag lost")
	}
	if m.Outstanding() != 0 {
		t.Fatal("outstanding after consume")
	}
	_ = m.Insert(3, 0, 8, false)
	m.Reset()
	if m.Outstanding() != 0 {
		t.Fatal("reset did not clear")
	}
	if err := m.Insert(MCBEntries, 0, 8, false); err == nil {
		t.Fatal("tag out of range must error")
	}
}

// Encoding round trip over randomized blocks, GuestPCs included.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	kinds := []Kind{KNop, KAluRR, KAluRI, KMovI, KLoad, KLoadD, KLoadS, KStore, KChk, KBrExit, KJump, KJumpR, KCsr, KFlush, KCommit}
	ops := []riscv.Op{riscv.ADD, riscv.MUL, riscv.LD, riscv.LW, riscv.SD, riscv.BEQ, riscv.CFLUSH, riscv.ADDI, riscv.SLLI}
	for trial := 0; trial < 200; trial++ {
		width := 1 + r.Intn(8)
		tb := testBlock{
			EntryPC:    uint64(r.Uint32()),
			FallPC:     uint64(r.Uint32()),
			GuestInsts: r.Intn(100),
		}
		for i := 0; i < 1+r.Intn(10); i++ {
			bun := make(Bundle, width)
			for j := range bun {
				bun[j] = Syllable{
					Kind: kinds[r.Intn(len(kinds))],
					Op:   ops[r.Intn(len(ops))],
					Dst:  uint8(r.Intn(64)),
					Ra:   uint8(r.Intn(64)),
					Rb:   uint8(r.Intn(64)),
					Imm:  int64(int32(r.Uint32())),
					Tag:  uint8(r.Intn(8)),
					Rec:  int16(r.Intn(4)) - 1,
				}
				switch r.Intn(3) { // GuestPC: padding, nearby, or anywhere
				case 1:
					bun[j].GuestPC = tb.EntryPC + uint64(4*r.Intn(64))
				case 2:
					bun[j].GuestPC = r.Uint64()
				}
			}
			tb.Bundles = append(tb.Bundles, bun)
		}
		for i := 0; i < r.Intn(3); i++ {
			var rec []Syllable
			for j := 0; j < 1+r.Intn(4); j++ {
				rec = append(rec, Syllable{Kind: KLoad, Op: riscv.LD, Dst: uint8(r.Intn(64)), Ra: uint8(r.Intn(64)), Imm: int64(r.Intn(1 << 20)), GuestPC: r.Uint64()})
			}
			tb.Recoveries = append(tb.Recoveries, rec)
		}
		blk := tb.pack()
		full, err := AppendBlock([]byte("prefix"), blk)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		got, n, err := ConsumeBlock(full[len("prefix"):])
		if err != nil {
			t.Fatalf("consume: %v", err)
		}
		if n != len(full)-len("prefix") || !reflect.DeepEqual(got, blk) {
			t.Fatalf("round trip (%d of %d bytes):\n%v\nwant\n%v", n, len(full)-len("prefix"), got, blk)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	blk := testBlock{Bundles: []Bundle{{Syllable{Kind: KMovI, Dst: 5, Imm: 1}}}}.pack()
	data, err := AppendBlock(nil, blk)
	if err != nil {
		t.Fatal(err)
	}
	image := len(data) - 1 // one GuestPC delta byte follows the syllable
	if _, _, err := ConsumeBlock(data[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, _, err := ConsumeBlock(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ConsumeBlock(data[:image-8]); err == nil {
		t.Error("missing syllable accepted")
	}
	if _, _, err := ConsumeBlock(data[:image]); err == nil {
		t.Error("missing GuestPC table accepted")
	}
}

// blockImage builds a block encoding: EntryPC, FallPC and GuestInsts
// 0, the given width, masks and recovery starts, then words (the
// syllables followed by nPool pool entries) and one GuestPC byte per
// syllable.
func blockImage(width, nPool uint64, masks, recStart []uint16, words ...uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, blockMagic)
	b = append(b, make([]byte, 16)...)
	nSyl := uint64(len(words)) - nPool
	b = binary.LittleEndian.AppendUint64(b, width<<32)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(masks))|uint64(len(recStart))<<16|nSyl<<32|nPool<<48)
	for _, v := range append(masks, recStart...) {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return append(b, make([]byte, nSyl)...)
}

// Syllable words for the hand-built images.
const (
	wordMovI  = uint64(KMovI) | 5<<13 | 1<<48 // movi r5, 1
	wordLoad  = uint64(KLoad) | 7<<13         // ld r7, 0(r0)
	wordPad   = uint64(1) << 35               // Syllable{}: rec+1 = 1
	wordFence = uint64(KNop) | uint64(riscv.FENCE)<<5 | 1<<35
)

// Hostile images must be rejected before any arithmetic on them can
// index out of range: counts that overflow or overrun the data, shapes
// that are not a block's canonical dense form, and v2 images, which
// padded every bundle to full width.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	one := func() []byte { return blockImage(1, 0, []uint16{1}, nil, wordMovI) }
	counts := func(c uint64) []byte {
		data := one()
		binary.LittleEndian.PutUint64(data[32:], c)
		return data
	}
	v2 := one()
	binary.LittleEndian.PutUint64(v2, 0x3130574C49564247) // "GBVLIW01"
	cases := map[string][]byte{
		"bundle count 1<<16-1":     counts(0xFFFF | 1<<32),
		"recovery count 1<<16-1":   counts(1 | 0xFFFF<<16 | 1<<32),
		"syllable count 1<<16-1":   counts(1 | 0xFFFF<<32),
		"pool length 1<<16-1":      counts(1 | 1<<32 | 0xFFFF<<48),
		"width 17":                 blockImage(17, 0, []uint16{1}, nil, wordMovI),
		"width 0 with a bundle":    blockImage(0, 0, []uint16{1}, nil, wordMovI),
		"width 1 with no bundles":  blockImage(1, 0, nil, nil),
		"pool index past the pool": blockImage(1, 1, []uint16{1}, nil, uint64(KMovI)|1<<47|3<<48, 42),
		"rec field 0xFFF":          blockImage(1, 0, []uint16{1}, nil, uint64(KChk)|0xFFF<<35),
		"kind past KCommit":        blockImage(1, 0, []uint16{1}, nil, uint64(KCommit+1)),
		"GuestPC table cut off":    one()[:headerBytes+2+8],
		"v2 block image":           v2,
		"mask bit at the width":    blockImage(2, 0, []uint16{0b100}, nil, wordMovI),
		"mask bit 15 at width 1":   blockImage(1, 0, []uint16{1 << 15}, nil, wordMovI),
		"masks overrun syllables":  blockImage(2, 0, []uint16{0b11}, nil, wordMovI),
		"masks leave syllables":    blockImage(2, 0, []uint16{0b01}, nil, wordMovI, wordMovI),
		"recovery before bundles":  blockImage(1, 0, []uint16{1}, []uint16{0}, wordMovI, wordLoad),
		"recovery after bundles":   blockImage(1, 0, []uint16{1}, []uint16{2}, wordMovI, wordLoad, wordLoad),
		"recoveries out of order":  blockImage(1, 0, []uint16{1}, []uint16{1, 3, 2}, wordMovI, wordLoad, wordLoad, wordLoad),
		"recovery past the end":    blockImage(1, 0, []uint16{1}, []uint16{1, 3}, wordMovI, wordLoad),
		"padding in occupied slot": blockImage(2, 0, []uint16{0b11}, nil, wordMovI, wordPad),
	}
	for name, data := range cases {
		if _, _, err := ConsumeBlock(data); err == nil {
			t.Errorf("%s: ConsumeBlock accepted it", name)
		}
	}
	// The well-formed neighbours of the cases above decode, every byte.
	for name, data := range map[string][]byte{
		"one movi":                 one(),
		"empty block":              blockImage(0, 0, nil, nil),
		"empty bundle":             blockImage(2, 0, []uint16{0, 0b10}, nil, wordMovI),
		"occupied nop":             blockImage(2, 0, []uint16{0b11}, nil, wordMovI, wordFence),
		"bundle, two recoveries":   blockImage(1, 0, []uint16{1}, []uint16{1, 2}, wordMovI, wordLoad, wordLoad),
		"padding in a recovery":    blockImage(1, 0, []uint16{1}, []uint16{1}, wordMovI, wordPad),
		"long immediate from pool": blockImage(1, 1, []uint16{1}, nil, uint64(KMovI)|1<<47, 1<<40),
	} {
		if _, n, err := ConsumeBlock(data); err != nil || n != len(data) {
			t.Errorf("%s: read %d of %d bytes, err %v", name, n, len(data), err)
		}
	}
}

func TestBlockString(t *testing.T) {
	blk := testBlock{
		EntryPC: 0x100,
		Bundles: []Bundle{{
			Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 5, Imm: 8, Tag: 1},
			Syllable{Kind: KChk, Tag: 1, Rec: 0},
			Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 6, Imm: 0x200},
			Syllable{Kind: KCommit, Dst: 5, Ra: 40},
		}},
		Recoveries: [][]Syllable{{{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 5, Imm: 8}}},
	}.pack()
	s := blk.String()
	for _, want := range []string{"lds", "chk", "br.", "commit", "rec0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExecRecoveryReplaysCommitAndRefreshesLDS(t *testing.T) {
	// Conflict recovery replays a dependent lds (refreshing its MCB
	// entry) and a commit; the dependent chk then validates cleanly.
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 0x20100) // pointer slot: points at 0x20100
	_ = b.Mem.Write(0x20100, 8, 7)       // old target value
	_ = b.Mem.Write(0x20200, 8, 0x20300) // corrected pointer
	_ = b.Mem.Write(0x20300, 8, 9)       // corrected target value

	blk := testBlock{
		FallPC: 0x300,
		Bundles: []Bundle{
			// lds1 reads the pointer slot speculatively (stale).
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 0},
				Syllable{Kind: KMovI, Dst: 5, Imm: 0x20200}),
			pad(cfg, Syllable{Kind: KMovI, Dst: 6, Imm: 0}),
			// lds2 dereferences it (dependent speculative load).
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 40, Tag: 1}),
			// the store the loads were hoisted above: overwrites the
			// pointer slot with the corrected pointer.
			pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 5}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 7, Imm: 0x20000}),
			// chk1 detects the conflict and replays the whole slice.
			pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 0}),
			pad(cfg, Syllable{Kind: KChk, Tag: 1, Rec: 1}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 10, Ra: 41}),
		},
		Recoveries: [][]Syllable{
			{
				{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
				{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 40, Tag: 1},
			},
			{
				{Kind: KLoad, Op: riscv.LD, Dst: 41, Ra: 40},
			},
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[10] != 9 {
		t.Fatalf("committed value = %d, want 9 (corrected chain)", regs[10])
	}
	if c.Stats.Recoveries == 0 {
		t.Fatal("no recovery ran")
	}
	if c.MCB.Outstanding() != 0 {
		t.Fatal("MCB entries left")
	}
}

func TestExecInstretCSR(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	c.Instret = 123
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KCsr, Dst: 5, Imm: riscv.CSRInstret}),
	}, GuestInsts: 7}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[5] != 123 {
		t.Fatalf("instret read = %d", regs[5])
	}
	if c.Instret != 130 {
		t.Fatalf("instret after block = %d, want 130", c.Instret)
	}
}

func TestExecJumpOverridesFallthrough(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{
		FallPC: 0x999,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KJump, Imm: 0x1234}),
		},
	}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.NextPC != 0x1234 || ei.SideExit {
		t.Fatalf("ei = %+v", ei)
	}
}

func TestZeroBundleBlockCostsACycle(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{FallPC: 0x10}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if cycles != 1 {
		t.Fatalf("zero-bundle dispatch cost %d cycles, want 1", cycles)
	}
}

func TestWritesToR0Discarded(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := testBlock{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 0, Imm: 99},
			Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 0, Imm: 1}),
	}}.pack()
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[0] != 0 || regs[5] != 1 {
		t.Fatalf("r0=%d r5=%d", regs[0], regs[5])
	}
}

func TestConfigForWidth(t *testing.T) {
	for _, width := range []int{2, 4, 8} {
		c, err := ConfigForWidth(width)
		if err != nil || c.Width() != width {
			t.Errorf("ConfigForWidth(%d) = width %d, %v", width, c.Width(), err)
		}
	}
	if c, _ := ConfigForWidth(4); !reflect.DeepEqual(c, DefaultConfig()) {
		t.Error("width 4 is not the default core")
	}
	for _, width := range []int{0, 3, 16} {
		if _, err := ConfigForWidth(width); err == nil {
			t.Errorf("ConfigForWidth(%d) accepted an unsupported width", width)
		}
	}
}

// The write schedule is fixed at predecode: a first write is direct
// only when nothing later in its bundle reads the register, writes it or
// can fault; otherwise it is staged and its terminator's mask names it.
func TestWriteSchedule(t *testing.T) {
	bit := func(rs ...uint8) (m uint64) {
		for _, r := range rs {
			m |= 1 << r
		}
		return m
	}
	cases := []struct {
		name   string
		sylls  []Syllable
		modes  []uint8
		staged uint64
	}{
		{
			name: "read after write is staged",
			sylls: []Syllable{
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 6, Imm: 1},
				{Kind: KAluRR, Op: riscv.ADD, Dst: 7, Ra: 8, Rb: 5},
			},
			modes:  []uint8{wmStaged, wmDirect},
			staged: bit(5),
		},
		{
			name: "swap stages the first write only",
			sylls: []Syllable{
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 6},
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 6, Ra: 5},
			},
			modes:  []uint8{wmStaged, wmDirect},
			staged: bit(5),
		},
		{
			name: "alu before a load is staged",
			sylls: []Syllable{
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 6, Imm: 1},
				{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 8},
			},
			modes:  []uint8{wmStaged, wmDirect},
			staged: bit(5),
		},
		{
			name: "writer followed by non-faulting alu ops is direct",
			sylls: []Syllable{
				{Kind: KMovI, Dst: 5, Imm: 3},
				{Kind: KAluRR, Op: riscv.ADD, Dst: 6, Ra: 7, Rb: 8},
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 9, Ra: 7, Imm: 2},
				{Kind: KLoadD, Op: riscv.LD, Dst: 10, Ra: 7},
			},
			modes: []uint8{wmDirect, wmDirect, wmDirect, wmDirect},
		},
		{
			name: "writer before a side exit is staged",
			sylls: []Syllable{
				{Kind: KMovI, Dst: 5, Imm: 3},
				{Kind: KBrExit, Op: riscv.BEQ, Ra: 6, Rb: 7, Imm: 0x300},
			},
			modes:  []uint8{wmStaged, wmNone},
			staged: bit(5),
		},
		{
			name: "dst r0 writes nothing",
			sylls: []Syllable{
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 0, Ra: 6, Imm: 1},
				{Kind: KMovI, Dst: 0, Imm: 2},
				{Kind: KAluRR, Op: riscv.ADD, Dst: 5, Ra: 0, Rb: 0},
			},
			modes: []uint8{wmNone, wmNone, wmDirect},
		},
		{
			name: "double write",
			sylls: []Syllable{
				{Kind: KMovI, Dst: 5, Imm: 1},
				{Kind: KMovI, Dst: 6, Imm: 2},
				{Kind: KMovI, Dst: 5, Imm: 3},
			},
			modes:  []uint8{wmStaged, wmStaged, wmDouble},
			staged: bit(5, 6),
		},
	}
	cfg := DefaultConfig()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blk := testBlock{Bundles: []Bundle{pad(cfg, tc.sylls...)}}.pack()
			ops := blk.decoded().ops
			var modes []uint8
			for _, d := range ops[:len(ops)-1] {
				modes = append(modes, d.wm)
			}
			if !reflect.DeepEqual(modes, tc.modes) {
				t.Errorf("write modes = %v, want %v", modes, tc.modes)
			}
			if got := uint64(ops[len(ops)-1].imm); got != tc.staged {
				t.Errorf("terminator mask = %#x, want %#x", got, tc.staged)
			}
		})
	}
}

// Predecode decides each dop's handler once: a direct write gets its
// in-place handler (add and addi their inline one), everything
// else keeps the generic handler and push; a non-final bundle that
// stages nothing and holds no chk, br.exit, jump or jumpr gets the plain
// end; the final bundle always gets opEndBlock. Recovery ops follow it,
// each a one-op bundle, so every recovery write is direct.
func TestDecodedSpecialisation(t *testing.T) {
	type handler = func(*Core, *dop) ctl
	name := map[uintptr]string{}
	for n, fn := range map[string]handler{
		"opAluRR": opAluRR, "opAluRI": opAluRI, "opMovI": opMovI, "opLoad": opLoad,
		"opLoadD": opLoadD, "opCommit": opCommit, "opCsr": opCsr, "opStore": opStore,
		"opChk": opChk, "opBrExit": opBrExit, "opJump": opJump, "opJumpR": opJumpR,
		"opFlushAll": opFlushAll, "opFlushLine": opFlushLine,
		"opAluRRDirect": opAluRRDirect, "opAluRIDirect": opAluRIDirect,
		"opAddDirect": opAddDirect, "opAddIDirect": opAddIDirect,
		"opMovIDirect": opMovIDirect, "opCommitDirect": opCommitDirect,
		"opEndBundle": opEndBundle, "opEndBundlePlain": opEndBundlePlain, "opEndBlock": opEndBlock,
		"opReplayLoadD": opReplayLoadD, "opReplayLoadS": opReplayLoadS, "opRecoveryBadKind": opRecoveryBadKind,
	} {
		name[reflect.ValueOf(fn).Pointer()] = n
	}
	terms := map[string]bool{"opEndBundle": true, "opEndBundlePlain": true, "opEndBlock": true}
	direct := map[string]bool{
		"opAluRRDirect": true, "opAluRIDirect": true, "opAddDirect": true,
		"opAddIDirect": true, "opMovIDirect": true, "opCommitDirect": true,
	}
	ld := Syllable{Kind: KLoad, Op: riscv.LD, Dst: 20, Ra: 21}
	cases := []struct {
		name       string
		bundles    [][]Syllable
		recoveries [][]Syllable
		want       []string // one per dop, terminators included
	}{
		{
			name: "direct writes",
			bundles: [][]Syllable{{
				{Kind: KAluRR, Op: riscv.ADD, Dst: 5, Ra: 1, Rb: 2},
				{Kind: KAluRR, Op: riscv.MUL, Dst: 6, Ra: 1, Rb: 2},
				{Kind: KAluRR, Op: riscv.SUB, Dst: 7, Ra: 1, Rb: 2},
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 8, Ra: 1, Imm: 1},
			}, {
				{Kind: KAluRI, Op: riscv.SLLI, Dst: 5, Ra: 1, Imm: 3},
				{Kind: KAluRI, Op: riscv.XORI, Dst: 6, Ra: 1, Imm: 1},
				{Kind: KMovI, Dst: 7, Imm: 4},
			}, {
				{Kind: KCommit, Dst: 8, Ra: 40},
			}, {ld}},
			want: []string{
				"opAddDirect", "opAluRRDirect", "opAluRRDirect", "opAddIDirect", "opEndBundlePlain",
				"opAluRIDirect", "opAluRIDirect", "opMovIDirect", "opEndBundlePlain",
				"opCommitDirect", "opEndBundlePlain", "opLoad", "opEndBlock",
			},
		},
		{
			name: "staged and double writes keep push",
			bundles: [][]Syllable{{
				{Kind: KAluRR, Op: riscv.ADD, Dst: 5, Ra: 1, Rb: 2},
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 6, Ra: 5, Imm: 1},
				{Kind: KCommit, Dst: 7, Ra: 40},
				{Kind: KMovI, Dst: 7, Imm: 1},
			}, {
				{Kind: KCommit, Dst: 8, Ra: 41},
				ld,
			}},
			want: []string{
				"opAluRR", "opAluRI", "opCommit", "opMovI", "opEndBundle",
				"opCommit", "opLoad", "opEndBlock",
			},
		},
		{
			name: "writes to r0 and unspecialised kinds",
			bundles: [][]Syllable{{
				{Kind: KAluRR, Op: riscv.ADD, Dst: 0, Ra: 1, Rb: 2},
				{Kind: KAluRI, Op: riscv.ADDI, Dst: 0, Ra: 1, Imm: 1},
				{Kind: KMovI, Dst: 0, Imm: 1},
				{Kind: KLoad, Op: riscv.LD, Dst: 0, Ra: 1},
			}, {
				{Kind: KLoadD, Op: riscv.LD, Dst: 5, Ra: 1},
				{Kind: KCsr, Op: riscv.CSRRS, Dst: 6, Imm: riscv.CSRCycle},
				{Kind: KStore, Op: riscv.SD, Ra: 1, Rb: 2},
				{Kind: KFlush, Op: riscv.CFLUSHALL},
			}, {
				{Kind: KFlush, Op: riscv.CFLUSH, Ra: 1},
			}, {ld}},
			want: []string{
				"opAluRR", "opAluRI", "opMovI", "opLoad", "opEndBundlePlain",
				"opLoadD", "opCsr", "opStore", "opFlushAll", "opEndBundle",
				"opFlushLine", "opEndBundlePlain",
				"opLoad", "opEndBlock",
			},
		},
		{
			name: "exits and checks keep the full end",
			bundles: [][]Syllable{
				{{Kind: KChk, Tag: 0, Rec: -1}},
				{{Kind: KBrExit, Op: riscv.BEQ, Ra: 1, Rb: 2, Imm: 0x300}},
				{{Kind: KJump, Imm: 0x300}},
				{{Kind: KJumpR, Ra: 1}},
				{{Kind: KMovI, Dst: 5, Imm: 1}},
			},
			want: []string{
				"opChk", "opEndBundle", "opBrExit", "opEndBundle", "opJump", "opEndBundle",
				"opJumpR", "opEndBundle", "opMovIDirect", "opEndBlock",
			},
		},
		{
			name:    "a one-bundle block ends the block",
			bundles: [][]Syllable{{{Kind: KMovI, Dst: 5, Imm: 1}}},
			want:    []string{"opMovIDirect", "opEndBlock"},
		},
		{
			name:    "recovery ops",
			bundles: [][]Syllable{{{Kind: KChk, Tag: 0, Rec: 1}}},
			recoveries: [][]Syllable{{ld}, {
				ld,
				{Kind: KAluRR, Op: riscv.ADD, Dst: 5, Ra: 20, Rb: 2},
				{Kind: KAluRI, Op: riscv.SLLI, Dst: 6, Ra: 5, Imm: 3},
				{Kind: KLoadD, Op: riscv.LD, Dst: 7, Ra: 6},
				{Kind: KLoadS, Op: riscv.LW, Dst: 8, Ra: 7, Tag: 1},
				{Kind: KCommit, Dst: 9, Ra: 8},
				{Kind: KMovI, Dst: 0, Imm: 1},
				{Kind: KStore, Op: riscv.SD, Ra: 1, Rb: 2},
				{Kind: KNop},
				{Kind: KCsr, Op: riscv.CSRRS, Dst: 10, Imm: riscv.CSRCycle},
			}},
			want: []string{
				"opChk", "opEndBlock",
				"opLoad",
				"opLoad", "opAddDirect", "opAluRIDirect", "opReplayLoadD", "opReplayLoadS",
				"opCommitDirect", "opMovI", "opRecoveryBadKind", "opRecoveryBadKind", "opRecoveryBadKind",
			},
		},
	}
	cfg := DefaultConfig()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := testBlock{Recoveries: tc.recoveries}
			for _, b := range tc.bundles {
				tb.Bundles = append(tb.Bundles, pad(cfg, b...))
			}
			blk := tb.pack()
			ops := blk.decoded().ops
			end := len(ops) - (len(blk.Syls) - blk.bundleSyls())
			var got []string
			first := 0
			for i := range ops {
				d := &ops[i]
				n := name[reflect.ValueOf(d.fn).Pointer()]
				got = append(got, n)
				if !terms[n] {
					sy := &blk.Syls[d.sy]
					if direct[n] && (d.wm != wmDirect || d.dst == 0) {
						t.Errorf("%s (write mode %d, r%d) got the direct handler %s", sy, d.wm, d.dst, n)
					}
					if i >= end && d.dst != 0 && writesDst(sy.Kind) && d.wm != wmDirect {
						t.Errorf("recovery op %s has write mode %d, want direct", sy, d.wm)
					}
					continue
				}
				last := i == end-1
				if last != (n == "opEndBlock") {
					t.Errorf("terminator %d is %s; the final bundle, and only it, ends the block", i, n)
				}
				if n == "opEndBundlePlain" {
					if d.imm != 0 {
						t.Errorf("terminator %d is plain after a bundle that stages %#x", i, d.imm)
					}
					for _, o := range ops[first:i] {
						switch sy := &blk.Syls[o.sy]; sy.Kind {
						case KChk, KBrExit, KJump, KJumpR:
							t.Errorf("terminator %d is plain after a bundle holding %s", i, sy)
						}
					}
				}
				first = i + 1
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("handlers:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// A bundle that faults commits none of its writes, whatever their mode:
// the earlier results of the faulting bundle, direct-eligible or not,
// must not reach the register file or its poison bits.
func TestExecFaultMidBundleCommitsNothing(t *testing.T) {
	cases := []struct {
		name string
		last Syllable
		kind trap.Kind
	}{
		{"poisoned commit", Syllable{Kind: KCommit, Dst: 7, Ra: 9, GuestPC: 0x120}, trap.DeferredFault},
		{"out-of-range load", Syllable{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 0, Imm: 8, GuestPC: 0x120}, trap.OutOfRangeAccess},
	}
	cfg := DefaultConfig()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNewCore(cfg)
			blk := testBlock{Bundles: []Bundle{
				// Squashed dismissable loads poison r9 and r10.
				pad(cfg,
					Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 9, Ra: 0, Imm: 8},
					Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 10, Ra: 0, Imm: 16}),
				pad(cfg,
					Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 5, Imm: 1},
					Syllable{Kind: KMovI, Dst: 10, Imm: 7},
					tc.last),
			}}.pack()
			var regs [NumRegs]uint64
			for r := range regs {
				regs[r] = uint64(r) * 11
			}
			regs[0] = 0
			want := regs
			want[9], want[10] = 0, 0
			var wantPoison [NumRegs]bool
			wantPoison[9], wantPoison[10] = true, true

			var cycles uint64
			ei := c.Exec(blk, &regs, newTestBus(), &cycles)
			if ei.Fault == nil || ei.Fault.Kind != tc.kind || ei.FaultPC != 0x120 || ei.Fault.PC != 0x120 {
				t.Fatalf("exit = %+v, want a %v fault at 0x120", ei, tc.kind)
			}
			if regs != want {
				t.Errorf("registers after the fault:\n got %v\nwant %v", regs, want)
			}
			if c.fr.poisoned != wantPoison {
				t.Errorf("poison after the fault:\n got %v\nwant %v", c.fr.poisoned, wantPoison)
			}
		})
	}
}

// A Syllable is three words: the byte-sized fields and Rec share the
// first, ahead of Imm.
func TestSyllableSize(t *testing.T) {
	if n := unsafe.Sizeof(Syllable{}); n != 24 {
		t.Fatalf("sizeof(Syllable) = %d, want 24", n)
	}
}

// A dop is four words, two to a cache line: the handler, the one
// semantic function, the immediate, and the syllable index with the
// byte-sized fields.
func TestDopSize(t *testing.T) {
	if n := unsafe.Sizeof(dop{}); n != 32 {
		t.Fatalf("sizeof(dop) = %d, want 32", n)
	}
}

// testBlock is a block as the tests write it, with full-width bundles;
// pack builds the dense Block the core runs.
type testBlock struct {
	EntryPC, FallPC uint64
	Bundles         []Bundle
	Recoveries      [][]Syllable
	GuestInsts      int
}

func (tb testBlock) pack() *Block {
	b, err := Pack(tb.Bundles, tb.Recoveries)
	if err != nil {
		panic(err)
	}
	b.EntryPC, b.FallPC, b.GuestInsts = tb.EntryPC, tb.FallPC, tb.GuestInsts
	return b
}
