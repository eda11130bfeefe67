// Package vliw defines the target ISA and the in-order execution core of
// the simulated DBT-based processor: wide bundles of syllables executed
// in lockstep, a register file twice the architectural size (the upper
// half are the paper's "hidden registers" for speculative results), and
// the Memory Conflict Buffer hardware that backs memory dependency
// speculation (Gallagher et al., ASPLOS'94; used by Transmeta, Denver and
// Hybrid-DBT).
//
// Speculative memory operations are distinct opcodes, exactly as the
// paper describes ("those speculative memory operations are clearly
// identified in the binaries, i.e. using a distinct opcode in the VLIW
// ISA"): KLoadD is a dismissable load hoisted above a side exit, KLoadS
// is an MCB-checked load hoisted above a store, KChk validates an MCB
// entry at the load's original position and branches to DBT-generated
// recovery code on conflict.
package vliw

import (
	"fmt"
	"sync/atomic"

	"ghostbusters/internal/riscv"
)

// NumRegs is the physical register file size. Registers 0..31 mirror the
// guest architectural registers; 32..63 are hidden registers invisible
// to the guest ISA, used for results of speculatively-hoisted
// instructions until their commit point.
const NumRegs = 64

// Kind is the syllable operation class.
type Kind uint8

const (
	KNop    Kind = iota
	KAluRR       // Dst = EvalALU(Op, R[Ra], R[Rb])
	KAluRI       // Dst = EvalALUImm(Op, R[Ra], Imm)
	KMovI        // Dst = Imm (long-immediate move)
	KLoad        // Dst = extend(Op, mem[R[Ra]+Imm]); architectural
	KLoadD       // dismissable load: faults squashed (hoisted above branch)
	KLoadS       // MCB load: dismissable + records (addr,size) under Tag
	KStore       // mem[R[Ra]+Imm] = R[Rb]; checks MCB for conflicts
	KChk         // validate MCB Tag; on conflict run recovery Rec
	KBrExit      // side exit: if EvalBranch(Op, R[Ra], R[Rb]) leave trace to Imm
	KJump        // block end: continue at guest PC Imm
	KJumpR       // block end: continue at guest PC R[Ra]+Imm (indirect)
	KCsr         // Dst = CSR[Imm] (cycle / instret)
	KFlush       // cflush line R[Ra] (Op=CFLUSH) or whole cache (CFLUSHALL)
	KCommit      // Dst(arch) = R[Ra](hidden): publish a speculative result
	// at its original program position; faults if the value
	// is poisoned (squashed dismissable load, NaT-style)
)

var kindNames = [...]string{
	KNop: "nop", KAluRR: "alu", KAluRI: "alui", KMovI: "movi",
	KLoad: "ld", KLoadD: "ldd", KLoadS: "lds", KStore: "st",
	KChk: "chk", KBrExit: "br.exit", KJump: "jump", KJumpR: "jumpr",
	KCsr: "csr", KFlush: "flush", KCommit: "commit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsMem reports whether the syllable kind uses the memory unit.
func (k Kind) IsMem() bool {
	switch k {
	case KLoad, KLoadD, KLoadS, KStore, KChk, KFlush, KCsr:
		return true
	}
	return false
}

// IsLoad reports whether the kind reads data memory.
func (k Kind) IsLoad() bool { return k == KLoad || k == KLoadD || k == KLoadS }

// IsControl reports whether the kind can redirect execution.
func (k Kind) IsControl() bool {
	return k == KBrExit || k == KJump || k == KJumpR
}

// Syllable is one operation inside a bundle.
//
// The byte-sized fields and Rec pack into the first word, so a syllable
// is three words (24 bytes; TestSyllableSize pins it).
type Syllable struct {
	Kind Kind
	Op   riscv.Op // semantic sub-operation (ALU op, load size, branch cond)
	Dst  uint8    // destination physical register
	Ra   uint8    // first source
	Rb   uint8    // second source
	Tag  uint8    // MCB tag for KLoadS / KChk
	Rec  int16    // recovery sequence index for KChk, -1 if none
	Imm  int64    // immediate / displacement / exit PC / CSR number

	GuestPC uint64 // guest address this syllable derives from (debugging)
}

func (s Syllable) String() string {
	switch s.Kind {
	case KNop:
		return "nop"
	case KAluRR:
		return fmt.Sprintf("%s r%d, r%d, r%d", s.Op, s.Dst, s.Ra, s.Rb)
	case KAluRI:
		return fmt.Sprintf("%si r%d, r%d, %d", s.Op, s.Dst, s.Ra, s.Imm)
	case KMovI:
		return fmt.Sprintf("movi r%d, %d", s.Dst, s.Imm)
	case KLoad, KLoadD, KLoadS:
		return fmt.Sprintf("%s.%s r%d, %d(r%d)", s.Kind, s.Op, s.Dst, s.Imm, s.Ra)
	case KStore:
		return fmt.Sprintf("st.%s r%d, %d(r%d)", s.Op, s.Rb, s.Imm, s.Ra)
	case KChk:
		return fmt.Sprintf("chk t%d, rec%d", s.Tag, s.Rec)
	case KCommit:
		return fmt.Sprintf("commit r%d, r%d", s.Dst, s.Ra)
	case KBrExit:
		return fmt.Sprintf("br.%s r%d, r%d -> %#x", s.Op, s.Ra, s.Rb, uint64(s.Imm))
	case KJump:
		return fmt.Sprintf("jump %#x", uint64(s.Imm))
	case KJumpR:
		return fmt.Sprintf("jumpr %d(r%d)", s.Imm, s.Ra)
	case KCsr:
		return fmt.Sprintf("csr r%d, %#x", s.Dst, s.Imm)
	case KFlush:
		if s.Op == riscv.CFLUSHALL {
			return "flushall"
		}
		return fmt.Sprintf("flush (r%d)", s.Ra)
	}
	return s.Kind.String()
}

// Bundle is one issue group: IssueWidth syllables executing in lockstep.
// All reads sample the register state before the bundle; writes apply
// after the bundle.
type Bundle []Syllable

// Block is a translated code region: the unit the DBT engine produces
// and the core executes.
type Block struct {
	EntryPC uint64
	Bundles []Bundle
	// Recoveries holds DBT-generated recovery sequences for KChk: the
	// speculative load re-executed architecturally plus its forward
	// slice, run sequentially on conflict.
	Recoveries [][]Syllable
	// FallPC is where execution continues when the block completes
	// without a control syllable redirecting it.
	FallPC uint64
	// GuestInsts is the number of guest instructions this block covers
	// (instret accounting).
	GuestInsts int

	// dec caches the block's threaded-dispatch table (see threaded.go).
	// Built once — at translation time via Prepare, or lazily on first
	// Exec — and immutable afterwards; atomic so blocks installed from
	// a shared translation cache can be executed by concurrent
	// machines without a lock.
	dec atomic.Pointer[decoded]
}

// decoded returns the block's threaded-dispatch table, building it on
// first use. Concurrent first uses may build it twice; both tables are
// equivalent and the loser is dropped.
func (b *Block) decoded() *decoded {
	if d := b.dec.Load(); d != nil {
		return d
	}
	d := buildDecoded(b)
	b.dec.Store(d)
	return d
}

// Prepare eagerly builds the threaded-dispatch table so the first
// dispatch of a freshly translated (or cache-installed) block doesn't
// pay the decode cost inside the measured hot loop.
func (b *Block) Prepare() { b.decoded() }

// SlotCap is a bitmask of syllable classes a slot can issue.
type SlotCap uint8

const (
	CapALU SlotCap = 1 << iota
	CapMem
	CapMul
	CapBranch
)

// Config describes the core geometry and static latencies. The scheduler
// spaces dependent syllables by these latencies; at run time the only
// dynamic timing is cache-miss stalls and side-exit penalties.
type Config struct {
	Slots []SlotCap // per-slot capabilities; len(Slots) == issue width

	LatALU  uint64 // ALU result latency (cycles)
	LatMul  uint64 // multiply latency
	LatDiv  uint64 // divide latency
	LatLoad uint64 // load-use latency on a cache hit

	ExitPenalty     uint64 // pipeline refill after a taken side exit
	RecoveryPenalty uint64 // fixed cost of entering MCB recovery
}

// DefaultConfig returns the standard 4-issue core: one memory unit, one
// multiplier, one branch unit, ALU everywhere — the Hybrid-DBT shape.
func DefaultConfig() Config {
	return Config{
		Slots: []SlotCap{
			CapALU | CapMem,
			CapALU | CapMul,
			CapALU,
			CapALU | CapBranch,
		},
		LatALU: 1, LatMul: 3, LatDiv: 8, LatLoad: 3,
		ExitPenalty: 3, RecoveryPenalty: 5,
	}
}

// WideConfig returns an 8-issue core (two memory units), for the
// issue-width ablation.
func WideConfig() Config {
	return Config{
		Slots: []SlotCap{
			CapALU | CapMem,
			CapALU | CapMem,
			CapALU | CapMul,
			CapALU | CapMul,
			CapALU,
			CapALU,
			CapALU,
			CapALU | CapBranch,
		},
		LatALU: 1, LatMul: 3, LatDiv: 8, LatLoad: 3,
		ExitPenalty: 3, RecoveryPenalty: 5,
	}
}

// NarrowConfig returns a 2-issue core, for the issue-width ablation.
func NarrowConfig() Config {
	return Config{
		Slots: []SlotCap{
			CapALU | CapMem,
			CapALU | CapMul | CapBranch,
		},
		LatALU: 1, LatMul: 3, LatDiv: 8, LatLoad: 3,
		ExitPenalty: 3, RecoveryPenalty: 5,
	}
}

// ConfigForWidth maps a CLI issue width (2, 4 or 8) to its core
// geometry: NarrowConfig, DefaultConfig or WideConfig.
func ConfigForWidth(width int) (Config, error) {
	switch width {
	case 2:
		return NarrowConfig(), nil
	case 4:
		return DefaultConfig(), nil
	case 8:
		return WideConfig(), nil
	}
	return Config{}, fmt.Errorf("unsupported width %d", width)
}

// Width returns the issue width.
func (c *Config) Width() int { return len(c.Slots) }

// CapFor returns the capability class a syllable kind requires.
func CapFor(k Kind, op riscv.Op) SlotCap {
	switch k {
	case KNop:
		return 0
	case KAluRR, KAluRI:
		switch op {
		case riscv.MUL, riscv.MULH, riscv.MULHSU, riscv.MULHU, riscv.MULW,
			riscv.DIV, riscv.DIVU, riscv.REM, riscv.REMU,
			riscv.DIVW, riscv.DIVUW, riscv.REMW, riscv.REMUW:
			return CapMul
		}
		return CapALU
	case KMovI, KCommit:
		return CapALU
	case KLoad, KLoadD, KLoadS, KStore, KCsr, KFlush:
		return CapMem
	case KChk:
		// The MCB has its own comparison port (Gallagher-style check
		// instructions do not occupy the D-cache port).
		return CapALU
	case KBrExit, KJump, KJumpR:
		return CapBranch
	}
	return CapALU
}

// Latency returns the static result latency of a syllable under cfg.
func (c *Config) Latency(s *Syllable) uint64 {
	switch s.Kind {
	case KLoad, KLoadD, KLoadS:
		return c.LatLoad
	case KAluRR, KAluRI:
		switch CapFor(s.Kind, s.Op) {
		case CapMul:
			switch s.Op {
			case riscv.DIV, riscv.DIVU, riscv.REM, riscv.REMU,
				riscv.DIVW, riscv.DIVUW, riscv.REMW, riscv.REMUW:
				return c.LatDiv
			}
			return c.LatMul
		}
		return c.LatALU
	}
	return c.LatALU
}

// Validate checks the configuration is usable.
func (c *Config) Validate() error {
	if len(c.Slots) == 0 {
		return fmt.Errorf("vliw: config has no slots")
	}
	var caps SlotCap
	for _, s := range c.Slots {
		caps |= s
	}
	for _, need := range []SlotCap{CapALU, CapMem, CapMul, CapBranch} {
		if caps&need == 0 {
			return fmt.Errorf("vliw: no slot provides capability %#x", need)
		}
	}
	if c.LatALU == 0 || c.LatLoad == 0 {
		return fmt.Errorf("vliw: latencies must be nonzero")
	}
	return nil
}

// String renders a block's schedule for debugging.
func (b *Block) String() string {
	s := fmt.Sprintf("vliw block @%#x (%d bundles, falls to %#x)\n", b.EntryPC, len(b.Bundles), b.FallPC)
	for i, bun := range b.Bundles {
		s += fmt.Sprintf("  %3d: ", i)
		for j, sy := range bun {
			if j > 0 {
				s += " | "
			}
			s += sy.String()
		}
		s += "\n"
	}
	for i, rec := range b.Recoveries {
		s += fmt.Sprintf("  rec%d:", i)
		for _, sy := range rec {
			s += " {" + sy.String() + "}"
		}
		s += "\n"
	}
	return s
}
