package dbt

import (
	"slices"
	"sync"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/vliw"
)

// This file implements direct block chaining, the dispatch layer of the
// fast execution backend: translated regions run back to back in
// runChain, which never copies the register file — registers live in
// m.vregs across the whole chained run, and the architectural state is
// synchronised only when the chain surfaces (interpreter handoff, fault,
// interrupt, cycle budget). Every translated dispatch runs here, traced
// and fault-injected runs included.
//
// The machine keeps one record per guest PC (pcState): its entry count,
// its branch profile, the region installed there now and whether its
// translation failed for good. A record never moves during a run, so a
// chain link caches the successor's record, not its region: installs,
// trace upgrades, blacklisting and SMC invalidation all update the
// record in place, and no link can go stale.

// chainLinks is the per-region successor cache size: fall-through,
// branch-taken and a couple of side-exit targets cover almost every
// region; anything beyond round-robins through the slots.
const chainLinks = 4

// chainLink is one resolved successor: its entry PC and record.
type chainLink struct {
	pc uint64
	ps *pcState
}

// pcState is everything the machine knows about one guest PC.
type pcState struct {
	entries uint64      // profiled block entries (interpreter and chain)
	br      brStat      // branch profile, when pc holds a conditional branch
	e       *transEntry // the region installed at pc now, or nil
	bad     bool        // translation failed for good: never count or translate again
}

// transState is what one machine hands to the next of the same guest
// memory geometry: the guest image, the per-PC records, the memory its
// regions compile through (the front end's builder and visited set, the
// mitigation step's memory and the scheduling graph), the machine's
// parts (bus, data cache, VLIW core and interpreter predecode table),
// the translation-cache key's fingerprint buffer and run view, the
// slabs its installed regions and records live in, and the arena its
// compiled blocks live in.
type transState struct {
	mem *guestmem.Memory

	pcs map[uint64]*pcState

	front    ir.Builder
	visited  map[uint64]struct{}
	mitigate pipeline.Memory
	sched    graph

	// The machine's parts; New and Load fit them to its configuration
	// and Machine.b, core and pred point at them.
	membus  bus.Bus
	dcache  cache.Cache
	vcore   vliw.Core
	predTab riscv.Predecode

	// fp holds the translation-cache fingerprint of the machine's
	// configuration and tcRun its view of the cache; Load fills both
	// when the run uses the cache, and Machine.tcr points at tcRun.
	fp    []byte
	tcRun tcache.Run

	// storeHook is the bus store hook of the machine that holds the set
	// (owner), bound once per set so a machine's Load allocates no
	// method value.
	owner     *Machine
	storeHook func(addr uint64, size int)

	// regions and records hold what the records and pcs point at.
	regions slab[transEntry]
	records slab[pcState]

	// code holds every block the machine compiles and its dispatch
	// table; blocks from the translation cache are shared and stay on
	// the heap. sched builds its blocks here.
	code vliw.Arena
}

// newTransState makes an empty transState over the guest image mem.
func newTransState(mem *guestmem.Memory) *transState {
	ts := &transState{
		mem:     mem,
		pcs:     make(map[uint64]*pcState),
		visited: make(map[uint64]struct{}),
	}
	ts.storeHook = func(addr uint64, size int) { ts.owner.onGuestStore(addr, size) }
	ts.sched.code = &ts.code
	return ts
}

// record returns pc's record, making it on first use.
func (ts *transState) record(pc uint64) *pcState {
	ps := ts.pcs[pc]
	if ps == nil {
		ps = ts.records.next()
		ts.pcs[pc] = ps
	}
	return ps
}

// regionAt returns the region installed at pc, or nil.
func (ts *transState) regionAt(pc uint64) *transEntry {
	if ps := ts.pcs[pc]; ps != nil {
		return ps.e
	}
	return nil
}

// reset empties the set for the next machine: the map and slabs, the
// guest image, and every part. A part keeps its memory but nothing of
// the machine that used it: the bus and cache hooks close over that
// machine, and the core's frame points at its registers and last block.
func (ts *transState) reset() {
	// The emptied map keeps its buckets; zeroing the slabs and the arena
	// drops the translated blocks.
	clear(ts.pcs)
	ts.regions.reset()
	ts.records.reset()
	ts.code.Reset()
	ts.mem.Reset()
	ts.membus = bus.Bus{}
	ts.dcache.Reset(ts.dcache.Config())
	ts.vcore.Reset(ts.vcore.Cfg)
	ts.predTab.Reset(0, 0)
	ts.tcRun = tcache.Run{}
	ts.owner = nil
}

// slabChunk is how many values one chunk of a slab holds.
const slabChunk = 64

// slab hands out zeroed values from fixed-size chunks. A chunk never
// moves once made, so maps may keep pointers into it until reset, which
// zeroes every value handed out and keeps the chunks for the next
// machine.
type slab[T any] struct {
	chunks [][]T
	n      int // values handed out
}

// next returns the next zeroed value.
func (s *slab[T]) next() *T {
	c := s.n / slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	v := &s.chunks[c][s.n%slabChunk]
	s.n++
	return v
}

func (s *slab[T]) reset() {
	for c := 0; c*slabChunk < s.n; c++ {
		clear(s.chunks[c])
	}
	s.n = 0
}

// spares holds the sets that Release put back, the most recent last.
// It never holds more sets of one geometry than were live at once, and
// the GC never empties it, so a warm sweep never zeroes a fresh image.
var spares struct {
	sync.Mutex
	sets []*transState
}

// takeSpare removes and returns the most recently released set whose
// guest image is size bytes at base, or makes a new set.
func takeSpare(base, size uint64) *transState {
	spares.Lock()
	for i := len(spares.sets) - 1; i >= 0; i-- {
		if ts := spares.sets[i]; ts.mem.Base() == base && ts.mem.Size() == size {
			spares.sets = slices.Delete(spares.sets, i, i+1)
			spares.Unlock()
			return ts
		}
	}
	spares.Unlock()
	return newTransState(guestmem.New(base, size))
}

// blockExtent computes the guest text range [lo, hi) a translated block
// covers, from the guest PCs stamped on its syllables (traces can reach
// below or above their entry).
func blockExtent(blk *vliw.Block) (lo, hi uint64) {
	lo, hi = blk.EntryPC, blk.EntryPC+4
	for i := range blk.Syls {
		if pc := blk.Syls[i].GuestPC; pc != 0 {
			lo, hi = min(lo, pc), max(hi, pc+4)
		}
	}
	return lo, hi
}

// onGuestStore is the bus store hook: it invalidates interpreter
// predecode entries and, when the store lands inside guest text covered
// by translated code, drops the overlapping regions from their records —
// a stale chained successor must never execute.
func (m *Machine) onGuestStore(addr uint64, size int) {
	if m.pred != nil {
		m.pred.Invalidate(addr, size)
	}
	if m.tcr != nil && addr < m.textHi && addr+uint64(size) > m.textLo {
		// Self-modifying code: the persistent translation cache describes
		// the original image, so stop consulting it and never publish
		// this run's recordings.
		m.tcr = nil
	}
	if addr >= m.transHi || addr+uint64(size) <= m.transLo {
		return
	}
	m.invalidateRange(addr, uint64(size))
}

// invalidateRange drops every translated region overlapping
// [addr, addr+size). Links name records, so they stay valid: a link to a
// dropped region now leads to the interpreter.
func (m *Machine) invalidateRange(addr, size uint64) {
	end := addr + size
	for _, ps := range m.pcs {
		if e := ps.e; e != nil && e.Lo < end && addr < e.Hi {
			ps.e = nil
			m.stats.SMCInvalidations++
		}
	}
}

// addLink caches next's record on e, evicting round-robin when the
// slots are full.
func (e *transEntry) addLink(next uint64, ps *pcState) {
	for i := range e.links {
		if e.links[i].ps == nil {
			e.links[i] = chainLink{pc: next, ps: ps}
			return
		}
	}
	e.links[e.linkVictim] = chainLink{pc: next, ps: ps}
	e.linkVictim = (e.linkVictim + 1) % chainLinks
}

// follow takes the transfer e→next: it finds next's record through e's
// links (through the map with DisableChaining), profiles the entry the
// way onEnter does, and returns the region to run next. A nil result
// surfaces the chain: next is interpreted.
func (m *Machine) follow(e *transEntry, next uint64) *transEntry {
	var ps *pcState
	if !m.cfg.DisableChaining {
		for i := range e.links {
			if e.links[i].pc == next && e.links[i].ps != nil {
				ps = e.links[i].ps
				break
			}
		}
	}
	if ps == nil {
		ps = m.record(next)
		if !m.cfg.DisableChaining {
			e.addLink(next, ps)
		}
	}
	if !ps.bad {
		ps.entries++
		if asTrace, due := m.promotion(ps.e, ps.entries); due {
			m.translateWith(next, asTrace)
		}
	}
	return ps.e
}

// syncState writes the chained register file back to the architectural
// state and parks the PC.
func (m *Machine) syncState(pc uint64) {
	copy(m.state.X[:], m.vregs[:32])
	m.state.X[0] = 0
	m.state.PC = pc
}

// runChain executes translated blocks back-to-back starting at pc/e.
// On return the architectural state is synchronised. A non-nil error is
// terminal — a raised fault, the cycle budget or an interrupt; nil means
// the chain reached interpreted code and the outer loop continues at
// m.state.PC.
//
// Each transfer takes the outer loop's own steps — dispatch (profile
// attribution and trace events), the entry protocol (follow) and the
// MaxCycles/interrupt guard — so only the register-file copies are
// elided. The differential tests pin the link scan against a map lookup
// per transfer (DisableChaining) down to exact cycle counts, trace
// events and trap identity.
func (m *Machine) runChain(pc uint64, e *transEntry) error {
	copy(m.vregs[:32], m.state.X[:])
	for {
		ei := m.dispatch(pc, e)
		if ei.Fault != nil {
			m.syncState(pc)
			return m.raise(ei.Fault, ei.FaultPC)
		}
		next := ei.NextPC
		succ := m.follow(e, next)
		if succ == nil {
			m.syncState(next)
			return nil
		}
		if err := m.guard(next); err != nil {
			m.syncState(next)
			return err
		}
		pc, e = next, succ
	}
}
