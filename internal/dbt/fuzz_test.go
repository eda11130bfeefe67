package dbt

import (
	"encoding/binary"
	"reflect"
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// fuzzBase is the text base of the differential fuzz guests.
const fuzzBase = 0x10000

// fuzzConfig returns a small machine for one differential run. The
// cycle budget is tight: random words love infinite loops, and timing
// is exactly what interpreter and translated execution do NOT agree on,
// so budget exhaustion on either side makes the pair incomparable.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.MemBase = fuzzBase
	cfg.MemSize = 1 << 20
	cfg.MaxCycles = 200_000
	return cfg
}

// fuzzProgram sanitises raw fuzz bytes into a guest program: up to 40
// instruction words with the cycle/time CSR reads neutralised (the one
// architecturally visible value that legitimately differs between
// execution modes), terminated by an ecall.
func fuzzProgram(data []byte) *riscv.Program {
	const nop = 0x00000013
	n := len(data) / 4
	if n > 40 {
		n = 40
	}
	words := make([]uint32, 0, n+1)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(data[4*i:])
		switch riscv.Decode(w).Op {
		case riscv.CSRRW, riscv.CSRRS, riscv.CSRRC:
			w = nop
		}
		words = append(words, w)
	}
	words = append(words, 0x00000073) // ecall
	return &riscv.Program{Entry: fuzzBase, TextBase: fuzzBase, Text: words}
}

// fuzzRun executes prog on a fresh machine and reports the outcome plus
// the final architectural state. A faulted run reports the Result a
// clean exit at that point would have (cycles, instret and Stats), so
// two backends can be compared on the fault path too; like the fault
// path of Run, it publishes nothing to a translation cache.
// selfModified reports whether the guest overwrote its own text with
// different words; such guests may legitimately diverge between modes.
// The store hook (Machine.onGuestStore) drops the overlapping regions
// only for later dispatches: the region that issued the store runs its
// translated bundles to the region exit, so an instruction it overwrote
// later in the same region still executes in its old form, while the
// interpreter fetches the new word at once.
func fuzzRun(t *testing.T, cfg Config, prog *riscv.Program) (res *Result, x [32]uint64, ferr *trap.Fault, selfModified bool) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Release()
	if err := m.Load(prog); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err = m.Run()
	if err != nil {
		ferr = trap.As(err)
		if ferr == nil {
			t.Fatalf("Run returned a non-trap error: %v", err)
		}
		res = m.result(riscv.Event{})
	}
	x = m.State().X
	for i, w := range prog.Text {
		got, rerr := m.Mem().Read(prog.TextBase+uint64(4*i), 4)
		if rerr != nil || uint32(got) != w {
			selfModified = true
			break
		}
	}
	return res, x, ferr, selfModified
}

// FuzzInterpVsVLIW is the differential fuzzer of the two execution
// modes: random instruction streams must either run to completion with
// identical architectural results (exit code and register file) under
// pure interpretation and under eager translation, or fault on both
// sides. Fault kinds are not compared — speculative scheduling
// legitimately reorders which fault fires first — but a clean exit on
// one side with a fault on the other is a translator bug.
//
// A third run translates with chaining off. Chaining only changes how
// the host reaches the next region, so that run must match the chained
// one exactly: exit, fault kind and PC, registers, cycles and Stats.
func FuzzInterpVsVLIW(f *testing.F) {
	le := binary.LittleEndian
	seed := func(words ...uint32) []byte {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			le.PutUint32(b[4*i:], w)
		}
		return b
	}
	f.Add(seed(0x00000013))                                     // nop
	f.Add(seed(0x00500513, 0x00A00593, 0x00B50533))             // li a0,5; li a1,10; add
	f.Add(seed(0x06400293, 0xFFF28293, 0xFE029EE3))             // countdown loop
	f.Add(seed(0x00053503))                                     // ld a0, 0(a0): wild load
	f.Add(seed(0x0100006F, 0xFFFFFFFF))                         // jal over an illegal word
	f.Add(seed(0x00A02023, 0x00002503, 0x00150513, 0x00A02223)) // store/load mix

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		cfgI := fuzzConfig()
		cfgI.DisableTranslation = true
		cfgT := fuzzConfig()
		cfgT.HotThreshold = 1
		cfgT.TraceThreshold = 3

		cfgU := cfgT
		cfgU.DisableChaining = true

		resI, xI, faultI, modI := fuzzRun(t, cfgI, prog)
		resT, xT, faultT, modT := fuzzRun(t, cfgT, prog)
		resU, xU, faultU, _ := fuzzRun(t, cfgU, prog)

		if (faultT == nil) != (faultU == nil) ||
			faultT != nil && (faultT.Kind != faultU.Kind || faultT.PC != faultU.PC) {
			t.Fatalf("chaining changes the fault: chained %v, unchained %v", faultT, faultU)
		}
		if !reflect.DeepEqual(resT, resU) || xT != xU {
			t.Fatalf("chaining changes the run:\nchained   %+v\n  x %v\nunchained %+v\n  x %v", resT, xT, resU, xU)
		}

		// Timing is mode-specific by design: once either side ran out of
		// budget the other may be anywhere. Same for self-modifying
		// guests: a region that overwrites its own later instructions
		// finishes with the stale translation (see fuzzRun).
		if trap.IsKind(faultI, trap.CycleBudgetExceeded) || trap.IsKind(faultT, trap.CycleBudgetExceeded) ||
			modI || modT {
			return
		}
		if (faultI == nil) != (faultT == nil) {
			t.Fatalf("fault divergence: interp=%v translated=%v", faultI, faultT)
		}
		if faultI != nil {
			return // both faulted; kinds/order may differ under scheduling
		}
		if resI.Exit.Kind != resT.Exit.Kind || resI.Exit.Code != resT.Exit.Code {
			t.Fatalf("exit divergence: interp kind=%d code=%d, translated kind=%d code=%d",
				resI.Exit.Kind, resI.Exit.Code, resT.Exit.Kind, resT.Exit.Code)
		}
		if xI != xT {
			for i := range xI {
				if xI[i] != xT[i] {
					t.Fatalf("register divergence at x%d: interp %#x, translated %#x", i, xI[i], xT[i])
				}
			}
		}
	})
}
