package riscv

import (
	"fmt"
	"testing"
)

// memBus is a minimal Bus for interpreter tests: flat memory, no timing.
type memBus struct {
	base uint64
	data []byte
}

func newMemBus(base uint64, size int) *memBus {
	return &memBus{base: base, data: make([]byte, size)}
}

func (b *memBus) word(addr uint64) (uint32, bool) {
	off := int(addr - b.base)
	if addr < b.base || off+4 > len(b.data) {
		return 0, false
	}
	return uint32(b.data[off]) | uint32(b.data[off+1])<<8 |
		uint32(b.data[off+2])<<16 | uint32(b.data[off+3])<<24, true
}

func (b *memBus) Fetch(addr uint64) (uint32, error) {
	w, ok := b.word(addr)
	if !ok {
		return 0, fmt.Errorf("fetch out of range at %#x", addr)
	}
	return w, nil
}

func (b *memBus) Load(addr uint64, size int) (uint64, uint64, error) {
	var v uint64
	for i := 0; i < size; i++ {
		off := int(addr-b.base) + i
		if addr < b.base || off >= len(b.data) {
			return 0, 0, fmt.Errorf("load out of range at %#x", addr)
		}
		v |= uint64(b.data[off]) << (8 * i)
	}
	return v, 1, nil
}

func (b *memBus) Store(addr uint64, size int, val uint64) (uint64, error) {
	for i := 0; i < size; i++ {
		off := int(addr-b.base) + i
		if addr < b.base || off >= len(b.data) {
			return 0, fmt.Errorf("store out of range at %#x", addr)
		}
		b.data[off] = byte(val >> (8 * i))
	}
	return 1, nil
}

func (b *memBus) putWord(addr uint64, w uint32) {
	_, _ = b.Store(addr, 4, uint64(w))
}

func (b *memBus) FlushLine(uint64) {}
func (b *memBus) FlushAll()        {}

func encodeOrDie(t *testing.T, in Inst) uint32 {
	t.Helper()
	w, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPredecodeFillHitInvalidate(t *testing.T) {
	const base = 0x1000
	b := newMemBus(base, 64)
	addi := encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: 1})
	b.putWord(base, addi)

	pd := NewPredecode(base, 4)
	in, err := pd.fetch(base, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != ADDI || in.Imm != 1 {
		t.Fatalf("first fetch decoded %v", in)
	}
	if s := pd.Stats(); s.Fills != 1 || s.Hits != 0 {
		t.Fatalf("after fill: %+v", s)
	}

	// Second fetch is a table hit even though memory now differs — until
	// a store invalidates the slot, exactly like a hardware predecode
	// buffer without coherence would behave. (The machine always routes
	// stores through Invalidate, so this state is unreachable there.)
	b.putWord(base, encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: 2}))
	in, err = pd.fetch(base, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Imm != 1 {
		t.Fatalf("cached fetch decoded imm %d, want stale 1", in.Imm)
	}
	if s := pd.Stats(); s.Hits != 1 {
		t.Fatalf("after hit: %+v", s)
	}

	// Invalidate the slot: the next fetch re-decodes the new bytes.
	pd.Invalidate(base+2, 1) // partial overlap still kills the slot
	in, err = pd.fetch(base, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Imm != 2 {
		t.Fatalf("post-invalidate fetch decoded imm %d, want 2", in.Imm)
	}
	if s := pd.Stats(); s.Invalidations != 1 || s.Fills != 2 {
		t.Fatalf("after invalidate: %+v", s)
	}
}

func TestPredecodeBypass(t *testing.T) {
	const base = 0x1000
	b := newMemBus(base, 64)
	addi := encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: 3})
	b.putWord(base+32, addi)

	pd := NewPredecode(base, 4) // covers [0x1000, 0x1010)
	in, err := pd.fetch(base+32, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != ADDI {
		t.Fatalf("bypass fetch decoded %v", in)
	}
	if s := pd.Stats(); s.Bypasses != 1 || s.Fills != 0 {
		t.Fatalf("stats after out-of-range fetch: %+v", s)
	}

	// Misaligned PCs also bypass (no slot corresponds to them).
	b.putWord(base+2, 0) // garbage; decode result irrelevant
	if _, err := pd.fetch(base+2, b); err != nil {
		t.Fatal(err)
	}
	if s := pd.Stats(); s.Bypasses != 2 {
		t.Fatalf("stats after misaligned fetch: %+v", s)
	}
}

func TestPredecodeNil(t *testing.T) {
	const base = 0x1000
	b := newMemBus(base, 64)
	b.putWord(base, encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 0, Imm: 7}))

	var pd *Predecode
	in, err := pd.fetch(base, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != ADDI || in.Imm != 7 {
		t.Fatalf("nil predecode fetch decoded %v", in)
	}
	pd.Invalidate(base, 8) // must not panic
	pd.InvalidateAll()
	if s := pd.Stats(); s != (PredecodeStats{}) {
		t.Fatalf("nil stats: %+v", s)
	}
}

func TestPredecodeInvalidateRanges(t *testing.T) {
	const base = 0x1000
	b := newMemBus(base, 64)
	for i := 0; i < 4; i++ {
		b.putWord(base+uint64(4*i), encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: int64(i)}))
	}
	pd := NewPredecode(base, 4)
	for i := 0; i < 4; i++ {
		if _, err := pd.fetch(base+uint64(4*i), b); err != nil {
			t.Fatal(err)
		}
	}

	// A store entirely outside the table clears nothing.
	pd.Invalidate(base-16, 8)
	pd.Invalidate(base+64, 8)
	if s := pd.Stats(); s.Invalidations != 0 {
		t.Fatalf("out-of-range store invalidated %d slots", s.Invalidations)
	}

	// An 8-byte store spanning slots 1 and 2 clears exactly those.
	pd.Invalidate(base+4, 8)
	if s := pd.Stats(); s.Invalidations != 2 {
		t.Fatalf("spanning store invalidated %d slots, want 2", s.Invalidations)
	}
	// Slots 0 and 3 still hit; 1 and 2 refill.
	hitsBefore := pd.Stats().Hits
	for i := 0; i < 4; i++ {
		if _, err := pd.fetch(base+uint64(4*i), b); err != nil {
			t.Fatal(err)
		}
	}
	s := pd.Stats()
	if s.Hits != hitsBefore+2 || s.Fills != 6 {
		t.Fatalf("after refill: %+v", s)
	}

	pd.InvalidateAll()
	if s := pd.Stats(); s.Invalidations != 2+4 {
		t.Fatalf("after InvalidateAll: %+v", s)
	}
}

// StepPredecoded and Step must agree instruction by instruction,
// including on stores that overwrite code already in the table.
func TestStepPredecodedMatchesStep(t *testing.T) {
	const base = 0x1000
	build := func() *memBus {
		b := newMemBus(base, 256)
		words := []Inst{
			{Op: ADDI, Rd: 5, Rs1: 0, Imm: 40},  // t0 = 40
			{Op: ADDI, Rd: 6, Rs1: 5, Imm: 2},   // t1 = 42
			{Op: SD, Rs1: 2, Rs2: 6, Imm: 0},    // [sp] = t1
			{Op: LD, Rd: 7, Rs1: 2, Imm: 0},     // t2 = [sp]
			{Op: ADD, Rd: 10, Rs1: 7, Rs2: 6},   // a0 = t2 + t1
			{Op: BEQ, Rs1: 10, Rs2: 10, Imm: 8}, // always taken, skip next
			{Op: ADDI, Rd: 10, Rs1: 0, Imm: -1}, // skipped
			{Op: ECALL},                         //
		}
		for i, in := range words {
			b.putWord(base+uint64(4*i), encodeOrDie(t, in))
		}
		return b
	}

	run := func(pd *Predecode, b *memBus) (State, []StepResult) {
		st := State{PC: base}
		st.X[2] = base + 128 // sp inside the bus memory
		var log []StepResult
		for i := 0; i < 64; i++ {
			res := StepPredecoded(&st, b, DefaultTiming(), uint64(i), pd)
			log = append(log, res)
			if res.Event.Kind != EvNone {
				break
			}
		}
		return st, log
	}

	stPlain, logPlain := run(nil, build())
	bp := build()
	stPred, logPred := run(NewPredecode(base, 64), bp)

	if stPlain != stPred {
		t.Fatalf("states differ:\nplain %+v\npred  %+v", stPlain, stPred)
	}
	if len(logPlain) != len(logPred) {
		t.Fatalf("step counts differ: %d vs %d", len(logPlain), len(logPred))
	}
	for i := range logPlain {
		if logPlain[i].Inst != logPred[i].Inst || logPlain[i].Cycles != logPred[i].Cycles ||
			logPlain[i].Taken != logPred[i].Taken || logPlain[i].Target != logPred[i].Target {
			t.Fatalf("step %d differs:\nplain %+v\npred  %+v", i, logPlain[i], logPred[i])
		}
	}
}

// TestPredecodeReset checks that a reset table starts like a new one —
// no valid slot, zero stats, the new extent — and reuses its memory
// when the new text fits.
func TestPredecodeReset(t *testing.T) {
	const base = 0x1000
	b := newMemBus(base, 64)
	b.putWord(base, encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: 1}))
	pd := NewPredecode(base, 8)
	if _, err := pd.fetch(base, b); err != nil {
		t.Fatal(err)
	}
	b.putWord(base, encodeOrDie(t, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: 2}))

	if n := testing.AllocsPerRun(10, func() { pd.Reset(base, 4) }); n != 0 {
		t.Errorf("resetting to a shorter text allocates %.0f objects", n)
	}
	if s := pd.Stats(); s != (PredecodeStats{}) {
		t.Fatalf("stats after Reset: %+v", s)
	}
	if !pd.Covers(base+12) || pd.Covers(base+16) {
		t.Fatal("the reset table does not cover exactly its 4 words")
	}
	in, err := pd.fetch(base, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Imm != 2 {
		t.Fatalf("fetch after Reset decoded imm %d: a stale slot survived", in.Imm)
	}
	if s := pd.Stats(); s.Fills != 1 || s.Hits != 0 {
		t.Fatalf("after Reset and one fetch: %+v", s)
	}
}
