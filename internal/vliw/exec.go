package vliw

import (
	"ghostbusters/internal/bus"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/trap"
)

// ExitInfo reports how a translated block finished.
type ExitInfo struct {
	NextPC   uint64
	SideExit bool        // a trace side exit was taken (static misprediction)
	Fault    *trap.Fault // architectural fault, nil otherwise
	FaultPC  uint64      // guest PC of the faulting operation
}

// Stats accumulates dynamic execution counters of the core.
type Stats struct {
	Bundles    uint64
	SideExits  uint64
	Recoveries uint64 // MCB conflicts that ran recovery code
	SpecLoads  uint64 // ldd/lds issued
	SpecSquash uint64 // dismissable loads whose fault was squashed
}

// Core executes translated blocks in order, bundle by bundle, with the
// cycle accounting of an in-order VLIW: one cycle per bundle, the whole
// machine stalls on a cache miss, taken side exits pay a refill penalty,
// and MCB conflicts pay a fixed penalty plus one cycle per op of the
// DBT-generated recovery sequence.
//
// Speculative results carry a poison bit (the NaT-style deferred
// exception of Transmeta-like machines): a dismissable load whose fault
// was squashed poisons its destination; poison propagates through ALU
// operations; any architectural use (store, branch, commit, indirect
// jump, architectural load address) of a poisoned value raises the fault
// at that point — i.e. at the speculated instruction's original program
// position, never on a misspeculated path.
type Core struct {
	Cfg   Config
	MCB   MCB
	Stats Stats

	// Tracer, when non-nil, receives speculation- and exit-level trace
	// events timed in machine cycles (spec-load issue/squash, MCB
	// recovery, side exits). A nil tracer costs one predictable branch
	// per candidate event; the dbt machine wires Config.Tracer here.
	Tracer *obs.Tracer

	// Instret counts guest instructions retired by translated code.
	Instret uint64

	// scr holds the per-bundle scratch state, kept on the core so the
	// steady-state execution loop is allocation-free: the recovery list
	// grows to the most chks of one bundle once and is then reused for
	// every bundle of every block.
	scr execScratch

	// fr is the per-Exec frame the threaded-dispatch handlers operate
	// on (see threaded.go), kept on the core for the same reason.
	fr execFrame
}

// execScratch is reusable per-bundle working state: the stage of the
// bundle's staged writes, indexed by destination register (the
// terminator commits the registers its mask names, and every one of
// them is written earlier in the same bundle, so stale slots are never
// read), and the chks that found a conflict, in check order.
type execScratch struct {
	recov  []*dop
	val    [NumRegs]uint64
	poison [NumRegs]bool
}

// NewCore builds a core, rejecting invalid configurations with an error
// (the simulator core never panics; see internal/trap).
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := new(Core)
	c.Reset(cfg)
	return c, nil
}

// Reset returns c to the state NewCore(cfg) builds: zero statistics, an
// empty MCB, no tracer, and no reference to the last block, bus or
// register file it ran on. It keeps the scratch recovery list's memory,
// cleared. cfg must be valid (see Config.Validate).
func (c *Core) Reset(cfg Config) {
	recov := c.scr.recov[:0]
	clear(recov[:cap(recov)])
	*c = Core{Cfg: cfg}
	c.scr.recov = recov
}

// MustNewCore is NewCore for configurations known valid (tests).
func MustNewCore(cfg Config) *Core {
	c, err := NewCore(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// errPoisonUse is the deferred exception of a squashed speculative load
// delivered at an architectural use of its poisoned result — by
// construction at the speculated instruction's original program
// position, never on a misspeculated path.
func errPoisonUse(sy *Syllable) *trap.Fault {
	f := trap.Newf(trap.DeferredFault, "architectural use of poisoned (squashed speculative) value by %s", sy)
	f.PC = sy.GuestPC
	return f
}

// errInternal flags a violated translator/scheduler invariant.
func errInternal(pc uint64, format string, args ...any) *trap.Fault {
	f := trap.Newf(trap.Internal, format, args...)
	f.PC = pc
	return f
}

// Exec runs one translated block. regs is the persistent physical
// register file (0..31 architectural, 32..63 hidden); b is the shared
// memory system; cycles is the machine cycle counter, advanced in place
// so rdcycle inside the block observes real time.
//
// Dispatch is threaded-code style: the block's predecoded dop table
// (built once, see threaded.go) is walked with one indirect call per
// live operation; bundle boundaries are pseudo-ops carrying the write
// phase, MCB recoveries and the exit decision. A recovery runs the ops
// predecoded for it in the same table.
func (c *Core) Exec(blk *Block, regs *[NumRegs]uint64, b *bus.Bus, cycles *uint64) ExitInfo {
	fr := &c.fr
	fr.regs, fr.b, fr.cycles, fr.blk = regs, b, cycles, blk
	fr.hitLat = b.DC.HitLatency()
	fr.poisoned = [NumRegs]bool{}
	fr.exitTaken, fr.haveNext = false, false
	// A fault can abandon a bundle after a chk requested its recovery.
	c.scr.recov = c.scr.recov[:0]

	// Dispatching any block costs at least one cycle (the chain jump),
	// so zero-bundle blocks (pure jumps) cannot loop for free.
	if len(blk.Slots) == 0 {
		if blk.dec.Load() == &released {
			panic("vliw: executing a block whose arena was reset")
		}
		*cycles++
		if n := c.MCB.Outstanding(); n != 0 {
			c.fail(errInternal(0, "vliw: %d MCB entries outstanding at block fallthrough", n), 0)
			return fr.exit
		}
		c.Instret += uint64(blk.GuestInsts)
		return ExitInfo{NextPC: blk.FallPC}
	}

	ops := blk.decoded().ops
	fr.ops = ops
	*cycles++
	c.Stats.Bundles++
	for i := 0; i < len(ops); i++ {
		d := &ops[i]
		if d.fn(c, d) != ctlNext {
			return fr.exit
		}
	}
	// Unreachable: the final bundle's terminator always stops.
	return fr.exit
}
