package vliw

import (
	"testing"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// recoveryCase is one block run on a fresh core, then checked.
type recoveryCase struct {
	name   string
	blk    *Block
	tracer bool
	check  func(t *testing.T, c *Core, regs *[NumRegs]uint64, cycles uint64, ei ExitInfo, b *bus.Bus)
}

// TestRecoverySemantics pins what an MCB conflict costs and does: the
// recovery penalty plus one cycle per replayed op, replayed speculative
// loads that refresh the MCB without counting or tracing as new
// speculation, faults delivered at the replayed op, and recovery kinds
// checked only when the recovery runs.
func TestRecoverySemantics(t *testing.T) {
	cfg := DefaultConfig()
	miss := cache.DefaultConfig().MissPenalty
	// conflictBlock is an lds hoisted above a store to its address, a
	// chk that sends the conflict to recovery 0, and a commit of the
	// value the recovery recomputes. chk t1 consumes a second entry
	// when the test loads one under tag 1.
	conflictBlock := func(store uint64, rec ...Syllable) *Block {
		return testBlock{
			FallPC: 0x300,
			Bundles: []Bundle{
				pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x100},
					Syllable{Kind: KMovI, Dst: 5, Imm: 2, GuestPC: 0x104}),
				pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 100, GuestPC: 0x108}),
				pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Rb: 5, Imm: int64(store), GuestPC: 0x10c}),
				pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 0, GuestPC: 0x100}),
				pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41, GuestPC: 0x110}),
			},
			Recoveries: [][]Syllable{rec},
		}.pack()
	}
	cases := []recoveryCase{
		{
			// (a) Five bundles, the penalty, three replayed ops, the
			// lds miss and the replayed miss of 0x28000. The replayed
			// ld of 0x20000 hits the line the lds filled.
			name: "cycles of one conflict",
			blk: conflictBlock(0x20000,
				Syllable{Kind: KLoad, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x100},
				Syllable{Kind: KLoad, Op: riscv.LD, Dst: 42, Imm: 0x28000, GuestPC: 0x100},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 100, GuestPC: 0x108}),
			check: func(t *testing.T, c *Core, regs *[NumRegs]uint64, cycles uint64, ei ExitInfo, b *bus.Bus) {
				if ei.Fault != nil {
					t.Fatal(ei.Fault)
				}
				if want := 5 + cfg.RecoveryPenalty + 3 + 2*miss; cycles != want {
					t.Errorf("cycles = %d, want %d", cycles, want)
				}
				if c.Stats.Recoveries != 1 || c.Stats.Bundles != 5 || c.Stats.SpecLoads != 1 {
					t.Errorf("stats = %+v", c.Stats)
				}
				// Each replayed op sees the one before it.
				if regs[6] != 102 || regs[42] != 5 {
					t.Errorf("r6 = %d, r42 = %d, want 102 and 5", regs[6], regs[42])
				}
			},
		},
		{
			// (b) Recovery 1 replays both loads. The replayed lds
			// follows the corrected pointer to 0x20208 and refreshes
			// tag 1 there, so the store to its stale address 0x20108
			// conflicts with nothing and chk t1 needs no recovery.
			name: "replayed lds refreshes the MCB and is not new speculation",
			blk: testBlock{
				FallPC: 0x300,
				Bundles: []Bundle{
					pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x100},
						Syllable{Kind: KMovI, Dst: 5, Imm: 0x20200, GuestPC: 0x104}),
					pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 40, Imm: 8, Tag: 1, GuestPC: 0x108}),
					pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Rb: 5, Imm: 0x20000, GuestPC: 0x10c}),
					pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 1, GuestPC: 0x100}),
					pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Rb: 5, Imm: 0x20108, GuestPC: 0x110}),
					pad(cfg, Syllable{Kind: KChk, Tag: 1, Rec: 0, GuestPC: 0x108}),
					pad(cfg, Syllable{Kind: KCommit, Dst: 10, Ra: 41, GuestPC: 0x114}),
				},
				Recoveries: [][]Syllable{
					{{Kind: KLoad, Op: riscv.LD, Dst: 41, Ra: 40, Imm: 8, GuestPC: 0x108}},
					{
						{Kind: KLoad, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x100},
						{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 40, Imm: 8, Tag: 1, GuestPC: 0x108},
					},
				},
			}.pack(),
			tracer: true,
			check: func(t *testing.T, c *Core, regs *[NumRegs]uint64, cycles uint64, ei ExitInfo, b *bus.Bus) {
				if ei.Fault != nil {
					t.Fatal(ei.Fault)
				}
				if regs[10] != 9 {
					t.Errorf("r10 = %d, want 9 (the corrected chain)", regs[10])
				}
				if c.Stats.Recoveries != 1 || c.Stats.SpecLoads != 2 || c.Stats.SpecSquash != 0 {
					t.Errorf("stats = %+v, want 1 recovery and the 2 issued lds", c.Stats)
				}
				if n := c.MCB.Outstanding(); n != 0 {
					t.Errorf("%d MCB entries outstanding", n)
				}
				var specLoads, recoveries []obs.Event
				for _, e := range c.Tracer.Events() {
					switch e.Kind {
					case obs.EvSpecLoad:
						specLoads = append(specLoads, e)
					case obs.EvRecovery:
						recoveries = append(recoveries, e)
					}
				}
				if len(specLoads) != 2 || specLoads[0].Arg1 != 0x20000 || specLoads[1].Arg1 != 0x20108 {
					t.Errorf("spec-load events = %+v, want the two issued lds only", specLoads)
				}
				if len(recoveries) != 1 || recoveries[0].PC != 0x100 || recoveries[0].Arg1 != 1 {
					t.Errorf("recovery events = %+v, want one at pc 0x100 for recovery 1", recoveries)
				}
			},
		},
		{
			// (c) r42 is poisoned by a squashed ldd; the second replayed
			// op uses it as a base. The first replayed op has landed,
			// and the outstanding tag 1 is drained with the fault.
			name: "poisoned base in a replayed ld",
			blk: testBlock{
				FallPC: 0x300,
				Bundles: []Bundle{
					pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 42, Imm: 8, GuestPC: 0xf0}),
					pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x100},
						Syllable{Kind: KMovI, Dst: 5, Imm: 2, GuestPC: 0x104}),
					pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 43, Imm: 0x20040, Tag: 1, GuestPC: 0x108}),
					pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Rb: 5, Imm: 0x20000, GuestPC: 0x10c}),
					pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 0, GuestPC: 0x100}),
					pad(cfg, Syllable{Kind: KChk, Tag: 1, Rec: 0, GuestPC: 0x108}),
				},
				Recoveries: [][]Syllable{{
					{Kind: KLoad, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x200},
					{Kind: KLoad, Op: riscv.LD, Dst: 41, Ra: 42, GuestPC: 0x204},
				}},
			}.pack(),
			check: func(t *testing.T, c *Core, regs *[NumRegs]uint64, cycles uint64, ei ExitInfo, b *bus.Bus) {
				if ei.Fault == nil || ei.Fault.Kind != trap.DeferredFault {
					t.Fatalf("exit = %+v, want a deferred fault", ei)
				}
				if ei.Fault.PC != 0x204 || ei.FaultPC != 0x204 {
					t.Errorf("fault at pc %#x (FaultPC %#x), want 0x204", ei.Fault.PC, ei.FaultPC)
				}
				if n := c.MCB.Outstanding(); n != 0 {
					t.Errorf("%d MCB entries outstanding after the fault", n)
				}
				if regs[40] != 2 {
					t.Errorf("r40 = %d, want 2 from the first replayed op", regs[40])
				}
			},
		},
	}
	// (d) A store or a nop is no recovery op, but only a recovery that
	// runs says so.
	for _, bad := range []Syllable{
		{Kind: KStore, Op: riscv.SD, Rb: 5, Imm: 0x20080, GuestPC: 0x1f0},
		{Kind: KNop, GuestPC: 0x1f0},
	} {
		rec := []Syllable{{Kind: KLoad, Op: riscv.LD, Dst: 40, Imm: 0x20000, GuestPC: 0x100}, bad}
		cases = append(cases, recoveryCase{
			name: bad.Kind.String() + " in a recovery that does not run",
			blk:  conflictBlock(0x20040, rec...),
			check: func(t *testing.T, c *Core, regs *[NumRegs]uint64, cycles uint64, ei ExitInfo, b *bus.Bus) {
				if ei.Fault != nil || c.Stats.Recoveries != 0 || regs[6] != 0x20100+100 {
					t.Errorf("exit %+v, stats %+v, r6 = %#x; want no fault, no recovery, the stale 0x20164", ei, c.Stats, regs[6])
				}
			},
		}, recoveryCase{
			name: bad.Kind.String() + " in a recovery that runs",
			blk:  conflictBlock(0x20000, rec...),
			check: func(t *testing.T, c *Core, regs *[NumRegs]uint64, cycles uint64, ei ExitInfo, b *bus.Bus) {
				if ei.Fault == nil || ei.Fault.Kind != trap.Internal || ei.FaultPC != 0x1f0 {
					t.Fatalf("exit = %+v, want an internal fault at 0x1f0", ei)
				}
				want := "vliw: kind " + bad.Kind.String() + " not allowed in recovery code"
				if ei.Fault.Detail != want {
					t.Errorf("fault %q, want %q", ei.Fault.Detail, want)
				}
				if v, _ := b.Mem.Read(0x20080, 8); v != 0 {
					t.Errorf("the rejected store wrote %d", v)
				}
			},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNewCore(cfg)
			if tc.tracer {
				c.Tracer = obs.New(obs.LevelSpec, nil)
			}
			b := newTestBus()
			_ = b.Mem.Write(0x20000, 8, 0x20100) // the stale pointer / old value
			_ = b.Mem.Write(0x20108, 8, 7)
			_ = b.Mem.Write(0x20208, 8, 9)
			_ = b.Mem.Write(0x28000, 8, 5)
			var regs [NumRegs]uint64
			var cycles uint64
			ei := c.Exec(tc.blk, &regs, b, &cycles)
			tc.check(t, c, &regs, cycles, ei, b)
		})
	}
}
