package dbt_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

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
	m1.Release()
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != 1 {
		t.Fatalf("%d spare sets after one release, want 1", n)
	}

	m2 := newMachine(t, cfg)
	defer m2.Release()
	if m2.Mem() != img {
		t.Fatal("New did not reuse the released image")
	}
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != 0 {
		t.Fatalf("%d spare sets while the only set is live, want 0", n)
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

	m3 := newMachine(t, cfg) // the only set is live, so this one is fresh
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

// TestDoubleReleasePushesOnce checks that a second Release of one
// machine does not put its set on the list twice, which would hand one
// image to two machines.
func TestDoubleReleasePushesOnce(t *testing.T) {
	cfg := spareConfig(2)
	m := newMachine(t, cfg)
	m.Release()
	m.Release()
	if n := dbt.SpareSets(cfg.MemBase, cfg.MemSize); n != 1 {
		t.Fatalf("%d spare sets after a double release, want 1", n)
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
// guest address. A set handed to two live machines would show as a
// wrong value here, and as a data race under -race.
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
