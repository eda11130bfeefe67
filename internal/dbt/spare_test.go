package dbt_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ghostbusters/internal/cache"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// spareGuest writes four pages in a loop hot enough to translate, then
// makes a misaligned load, which faults only under StrictAlign.
const spareGuest = `
main:
	li s0, 0x100000
	li s3, 0x101000
	li s4, 0x102000
	li s5, 0x103000
	li s1, 0
	li s2, 200
loop:
	addi s1, s1, 1
	sd s1, 0(s0)
	sd s1, 8(s3)
	sd s1, 16(s4)
	sd s1, 24(s5)
	blt s1, s2, loop
	ld t1, 1(s0)
	andi a0, t1, 0xff
	ecall
`

// spareConfig returns the default configuration with a guest image of
// its own geometry, one per test, so that the spare list's count of it
// is the test's alone.
func spareConfig(pages uint64) dbt.Config {
	cfg := dbt.DefaultConfig()
	cfg.MemSize = 2<<20 + pages<<12
	return cfg
}

func newMachine(t *testing.T, cfg dbt.Config) *dbt.Machine {
	t.Helper()
	m, err := dbt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReleasedMachineLeavesNoTrace runs a guest that writes several
// pages under a protected region and StrictAlign, then faults, and
// checks that the next machine of that geometry, which gets the same
// image back, starts as a fresh one: zeroed bytes, no protection, its
// own StrictAlign, zero Stats and a cold first translation.
func TestReleasedMachineLeavesNoTrace(t *testing.T) {
	cfg := spareConfig(1)
	p := riscv.MustAssemble(spareGuest)

	strict := cfg
	strict.StrictAlign = true
	m1 := newMachine(t, strict)
	img := m1.Mem()
	if err := m1.Load(p); err != nil {
		t.Fatal(err)
	}
	img.Protect(0x200000, 0x200100)
	_, err := m1.Run()
	if f := trap.As(err); f == nil || f.Kind != trap.MisalignedAccess {
		t.Fatalf("strict run: got %v, want a misaligned-access trap", err)
	}
	if len(m1.TranslatedPCs()) == 0 {
		t.Fatal("the faulting run translated nothing")
	}
	// Counts are relative to what earlier runs of the test (-count)
	// left on the list.
	n0 := dbt.SpareSets(cfg.MemBase, cfg.MemSize)
	m1.Release()
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != n0+1 {
		t.Fatalf("%d spare sets after one release, want %d", n, n0+1)
	}

	m2 := newMachine(t, cfg)
	defer m2.Release()
	if m2.Mem() != img {
		t.Fatal("New did not reuse the released image")
	}
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != n0 {
		t.Fatalf("%d spare sets while the released set is live again, want %d", n, n0)
	}
	pages, err := img.ReadBytes(0x100000, 4<<12)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexFunc(pages, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("byte %#x of the reused image is nonzero", 0x100000+i)
	}
	if img.Protected(0x200000, 8) {
		t.Fatal("the reused image kept its protected region")
	}
	if img.StrictAlign {
		t.Fatal("the reused image kept StrictAlign")
	}
	if pcs := m2.TranslatedPCs(); len(pcs) != 0 {
		t.Fatalf("the reused machine starts with %d translated regions", len(pcs))
	}
	if err := m2.Load(p); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}

	m3 := newMachine(t, cfg) // img is live, so this one is another set
	defer m3.Release()
	if m3.Mem() == img {
		t.Fatal("two live machines share one image")
	}
	if err := m3.Load(p); err != nil {
		t.Fatal(err)
	}
	want, err := m3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Translations == 0 {
		t.Fatal("the reused machine translated nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused machine ran differently from a fresh one:\nreused %+v\nfresh  %+v", got, want)
	}
}

// spareGuestLong is longer than spareGuest, holds other instructions at
// the same addresses, and loads and flushes, so a machine that ran it
// leaves predecode entries, valid cache lines and fired hooks behind.
const spareGuestLong = `
main:
	li s0, 0x100000
	li s1, 0
	li s2, 300
loop:
	addi s1, s1, 1
	ld t0, 0(s0)
	add t0, t0, s1
	sd t0, 0(s0)
	cflush s0
	addi s0, s0, 64
	addi t1, t1, 3
	xor t2, t1, s1
	blt s1, s2, loop
	cflushall
	li s0, 0x100000
	ld t0, 0(s0)
	li a0, 0
	ecall
`

// TestReleasedPartsComeBackFresh releases a machine that ran a longer
// text under another cache geometry, with a scoreboard-style OnLoad
// hook and an OnFlush hook, and checks that the next machine of that
// memory geometry, which gets the same parts back, sees nil hooks, an
// empty cache of its own geometry, zero counters, and runs exactly like
// a machine built from nothing.
func TestReleasedPartsComeBackFresh(t *testing.T) {
	cfg := spareConfig(5)
	other := cfg
	other.Cache.Sets, other.Cache.Ways = 128, 4

	m1 := newMachine(t, other)
	img := m1.Mem()
	if err := m1.Load(riscv.MustAssemble(spareGuestLong)); err != nil {
		t.Fatal(err)
	}
	var loads, flushes int
	b1 := m1.Bus()
	prev := b1.OnLoad // chain onto what is there, as attack's scoreboard does
	b1.OnLoad = func(addr uint64) {
		if prev != nil {
			prev(addr)
		}
		loads++
	}
	b1.DC.OnFlush = func(uint64, int, bool) { flushes++ }
	if _, err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	if loads == 0 || flushes == 0 || m1.PredecodeStats().Fills == 0 || len(m1.TranslatedPCs()) == 0 {
		t.Fatalf("the first run left too little behind: %d loads, %d flushes, %+v, %d regions",
			loads, flushes, m1.PredecodeStats(), len(m1.TranslatedPCs()))
	}
	seenLoads, seenFlushes := loads, flushes
	m1.Release()
	if m1.Bus() != nil {
		t.Fatal("Release left the released machine its bus")
	}

	m2 := newMachine(t, cfg)
	defer m2.Release()
	if m2.Mem() != img {
		t.Fatal("New did not reuse the released set")
	}
	b2 := m2.Bus()
	if b2.OnLoad != nil || b2.OnStore != nil || b2.OnAccess != nil || b2.OnSpecLoad != nil || b2.DC.OnFlush != nil {
		t.Fatal("the reused bus or cache kept a hook")
	}
	if b2.Mem != img {
		t.Fatal("the reused bus does not reach the machine's image")
	}
	if got := b2.DC.Config(); got != cfg.Cache {
		t.Fatalf("the reused cache has geometry %+v, want %+v", got, cfg.Cache)
	}
	if st := b2.DC.Stats(); st != (cache.Stats{}) {
		t.Fatalf("the reused cache starts with stats %+v", st)
	}
	for addr := uint64(0x100000); addr < 0x100000+300*64; addr += 64 {
		if b2.DC.Probe(addr) {
			t.Fatalf("the reused cache holds a valid line for %#x", addr)
		}
	}
	p := riscv.MustAssemble(spareGuest)
	if err := m2.Load(p); err != nil {
		t.Fatal(err)
	}
	if st := m2.PredecodeStats(); st != (riscv.PredecodeStats{}) {
		t.Fatalf("the reused predecode table starts with stats %+v", st)
	}
	got, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if loads != seenLoads || flushes != seenFlushes {
		t.Fatalf("the released machine's hooks saw %d loads and %d flushes of the next machine's run",
			loads-seenLoads, flushes-seenFlushes)
	}

	m3 := newMachine(t, cfg) // m2 holds the released set, so this is another
	defer m3.Release()
	if err := m3.Load(p); err != nil {
		t.Fatal(err)
	}
	want, err := m3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused machine ran differently from a fresh one:\nreused %+v\nfresh  %+v", got, want)
	}
	if g, w := m2.PredecodeStats(), m3.PredecodeStats(); g != w {
		t.Fatalf("predecode stats: reused %+v, fresh %+v", g, w)
	}
	gotProf, wantProf := m2.ProfileReport(), m3.ProfileReport()
	for _, prof := range [][]dbt.HotRegion{gotProf, wantProf} {
		for i := range prof {
			prof[i].TransNS = 0 // host time
		}
	}
	if !reflect.DeepEqual(gotProf, wantProf) {
		t.Fatalf("region counters: reused %+v, fresh %+v", gotProf, wantProf)
	}
}

// TestDoubleReleasePushesOnce checks that a second Release of one
// machine does not put its set on the list twice, which would hand one
// image to two machines.
func TestDoubleReleasePushesOnce(t *testing.T) {
	cfg := spareConfig(2)
	m := newMachine(t, cfg)
	n0 := dbt.SpareSets(cfg.MemBase, cfg.MemSize) // left by earlier runs (-count)
	m.Release()
	m.Release()
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != n0+1 {
		t.Fatalf("%d spare sets after a double release, want %d", n, n0+1)
	}
	a, b := newMachine(t, cfg), newMachine(t, cfg)
	defer a.Release()
	defer b.Release()
	if a.Mem() == b.Mem() {
		t.Fatal("a double release handed one image to two machines")
	}
}

// TestLiveMachinesShareNoMemory runs machines of one geometry on
// several goroutines at once, each writing its own value into the same
// guest address and counting its loads through its own bus hook. A set
// handed to two live machines would show as a wrong value or load count
// here, and as a data race under -race.
func TestLiveMachinesShareNoMemory(t *testing.T) {
	cfg := spareConfig(3)
	p := riscv.MustAssemble(spareGuest)
	const workers, rounds, addr = 4, 8, 0x180000
	var wg sync.WaitGroup
	for w := uint64(1); w <= workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(0); r < rounds; r++ {
				m, err := dbt.New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				var loads int
				b := m.Bus()
				if b.OnLoad != nil {
					t.Errorf("worker %d round %d: a new machine's bus has an OnLoad hook", w, r)
				}
				b.OnLoad = func(uint64) { loads++ }
				mem := m.Mem()
				if v, _ := mem.Read(addr, 8); v != 0 {
					t.Errorf("worker %d round %d: a new machine reads %#x, want 0", w, r, v)
				}
				mine := w<<32 | r
				if err := mem.Write(addr, 8, mine); err != nil {
					t.Error(err)
				}
				if err := m.Load(p); err != nil {
					t.Error(err)
				}
				if _, err := m.Run(); err != nil {
					t.Error(err)
				}
				if v, _ := mem.Read(addr, 8); v != mine {
					t.Errorf("worker %d round %d: read %#x back, want %#x", w, r, v, mine)
				}
				if loads != 1 { // the guest's one architectural load
					t.Errorf("worker %d round %d: its hook saw %d loads, want 1", w, r, loads)
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n > workers {
		t.Fatalf("%d spare sets, more than the %d machines ever live", n, workers)
	}
}

// TestSequentialMachinesKeepOneSpare checks the retention rule: the list
// holds no more sets of a geometry than were live at once.
func TestSequentialMachinesKeepOneSpare(t *testing.T) {
	cfg := spareConfig(4)
	for i := 0; i < 100; i++ {
		newMachine(t, cfg).Release()
	}
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != 1 {
		t.Fatalf("%d spare sets after 100 sequential machines, want 1", n)
	}
}
