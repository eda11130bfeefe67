package bus

import (
	"testing"

	"ghostbusters/internal/cache"
	"ghostbusters/internal/guestmem"
)

func newBus() *Bus {
	return &Bus{Mem: guestmem.New(0x1000, 1<<16), DC: cache.MustNew(cache.DefaultConfig())}
}

func TestLoadStoreTiming(t *testing.T) {
	b := newBus()
	if _, err := b.Store(0x2000, 8, 0xABCD); err != nil {
		t.Fatal(err)
	}
	v, lat, err := b.Load(0x2000, 8)
	if err != nil || v != 0xABCD {
		t.Fatalf("load = %#x, %v", v, err)
	}
	if lat != 3 { // the store allocated the line
		t.Fatalf("hit latency = %d", lat)
	}
	_, lat2, _ := b.Load(0x3000, 8)
	if lat2 != 23 {
		t.Fatalf("miss latency = %d", lat2)
	}
}

func TestFetchBypassesDataCache(t *testing.T) {
	b := newBus()
	_ = b.Mem.Write(0x1004, 4, 0xDEAD)
	w, err := b.Fetch(0x1004)
	if err != nil || w != 0xDEAD {
		t.Fatalf("fetch = %#x, %v", w, err)
	}
	if b.DC.Probe(0x1004) {
		t.Fatal("instruction fetch must not fill the data cache")
	}
}

func TestLoadFaultDoesNotFill(t *testing.T) {
	b := newBus()
	if _, _, err := b.Load(0x100000, 8); err == nil {
		t.Fatal("out-of-range load should fault")
	}
	if b.DC.Probe(0x100000) {
		t.Fatal("faulting load filled the cache")
	}
}

func TestSpeculativeLoadPaths(t *testing.T) {
	b := newBus()
	_ = b.Mem.Write(0x2000, 8, 99)
	b.Mem.Protect(0x2000, 0x2008)

	if _, _, err := b.Load(0x2000, 8); err == nil {
		t.Fatal("architectural load of protected data should fault")
	}
	v, _, ok := b.LoadSpeculative(0x2000, 8)
	if !ok || v != 99 {
		t.Fatalf("speculative load = %d, %v", v, ok)
	}
	if !b.DC.Probe(0x2000) {
		t.Fatal("speculative load must fill the cache")
	}
	if _, _, ok := b.LoadSpeculative(1<<40, 8); ok {
		t.Fatal("out-of-range speculative load must squash")
	}
}

func TestFlushOps(t *testing.T) {
	b := newBus()
	_, _, _ = b.Load(0x2000, 8)
	b.FlushLine(0x2000)
	if b.DC.Probe(0x2000) {
		t.Fatal("FlushLine failed")
	}
	_, _, _ = b.Load(0x2000, 8)
	_, _, _ = b.Load(0x2040, 8)
	b.FlushAll()
	if b.DC.Probe(0x2000) || b.DC.Probe(0x2040) {
		t.Fatal("FlushAll failed")
	}
}

func TestStoreFaultPropagates(t *testing.T) {
	b := newBus()
	if _, err := b.Store(1<<40, 8, 1); err == nil {
		t.Fatal("out-of-range store should fault")
	}
}

// The observer hooks are nil by default and their disabled checks are
// free: the load paths (architectural and speculative) stay at 0
// allocs/op, the gate keeping the scoreboard zero-cost when no one is
// watching.
func TestNilHooksZeroAllocs(t *testing.T) {
	b := newBus()
	_, _, _ = b.Load(0x2000, 8) // warm the line
	allocs := testing.AllocsPerRun(1000, func() {
		_, _, _ = b.Load(0x2000, 8)
		_, _, _ = b.LoadSpeculative(0x2000, 8)
	})
	if allocs != 0 {
		t.Fatalf("load path with nil hooks allocates %.1f objects/op, want 0", allocs)
	}
}

// Installed hooks observe both load kinds (the speculative hook is
// invoked by the VLIW core, so at bus level only OnLoad fires here).
func TestOnLoadHookObserves(t *testing.T) {
	b := newBus()
	var got []uint64
	b.OnLoad = func(addr uint64) { got = append(got, addr) }
	_, _, _ = b.Load(0x2000, 8)
	_, _, _ = b.LoadSpeculative(0x2040, 8) // must NOT trigger OnLoad
	if len(got) != 1 || got[0] != 0x2000 {
		t.Fatalf("OnLoad observed %v, want [0x2000]", got)
	}
}
