package dbt

import (
	"slices"
	"sync"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/core"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/vliw"
)

// This file implements direct block chaining, the dispatch layer of the
// fast execution backend: once a translated region's successor is
// resolved, block→block transfers run in a tight inner loop that never
// touches the m.trans map or copies the register file — registers live
// in m.vregs across the whole chained run, and the architectural state
// is synchronised only when the chain surfaces (interpreter handoff,
// fault, interrupt, budget exhaustion).
//
// Links are cached per region and validated against Machine.chainEpoch:
// any translation-cache mutation (new install, blacklist, SMC
// invalidation) bumps the epoch, severing every link at once. A link
// may also carry the successor's profile counter so the per-entry
// profiling of the outer loop (m.entries) is preserved without a map
// lookup per transfer.

// chainLinks is the per-region successor cache size: fall-through,
// branch-taken and a couple of side-exit targets cover almost every
// region; anything beyond round-robins through the slots.
const chainLinks = 4

// chainBudget bounds how many blocks chain back-to-back before the
// inner loop surfaces to the outer dispatch loop (profiling fairness
// and prompt interrupt delivery).
const chainBudget = 64

// chainLink is one resolved successor: target entry PC, its translated
// region, and its profile counter (nil when the PC is blacklisted, in
// which case the slow path would not count it either).
type chainLink struct {
	pc  uint64
	e   *transEntry
	cnt *uint64
}

// transState is what one machine hands to the next of the same guest
// memory geometry: the guest image, the profile and translation maps,
// the memory its regions compile through (the front end's builder and
// visited set, the poison analysis and the scheduling graph), the
// machine's parts (bus, data cache, VLIW core and interpreter predecode
// table), the translation-cache key's fingerprint buffer and run view,
// and the slabs its installed regions and profile counters live in.
// entries values are pointers so chain links can bump a block's
// profile counter without a map lookup.
type transState struct {
	mem *guestmem.Memory

	entries  map[uint64]*uint64
	branches map[uint64]*brStat
	trans    map[uint64]*transEntry
	noTrans  map[uint64]struct{}

	front    ir.Builder
	visited  map[uint64]struct{}
	analysis core.Analysis
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

	// regions, counters and brStats hold what trans, entries and
	// branches point at.
	regions  slab[transEntry]
	counters slab[uint64]
	brStats  slab[brStat]
}

// newTransState makes an empty transState over the guest image mem.
func newTransState(mem *guestmem.Memory) *transState {
	ts := &transState{
		mem:      mem,
		entries:  make(map[uint64]*uint64),
		branches: make(map[uint64]*brStat),
		trans:    make(map[uint64]*transEntry),
		noTrans:  make(map[uint64]struct{}),
		visited:  make(map[uint64]struct{}),
	}
	ts.storeHook = func(addr uint64, size int) { ts.owner.onGuestStore(addr, size) }
	return ts
}

// reset empties the set for the next machine: the maps and slabs, the
// guest image, and every part. A part keeps its memory but nothing of
// the machine that used it: the bus and cache hooks close over that
// machine, and the core's frame points at its registers and last block.
func (ts *transState) reset() {
	// Emptied maps keep their buckets; zeroing the slabs drops the
	// translated blocks.
	clear(ts.entries)
	clear(ts.branches)
	clear(ts.trans)
	clear(ts.noTrans)
	ts.regions.reset()
	ts.counters.reset()
	ts.brStats.reset()
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
// by translated code, drops the overlapping regions and severs chain
// links into them — a stale chained successor must never execute.
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
// [addr, addr+size) and severs all chain links.
func (m *Machine) invalidateRange(addr, size uint64) {
	end := addr + size
	dropped := false
	for pc, e := range m.trans {
		if e.Lo < end && addr < e.Hi {
			delete(m.trans, pc)
			m.stats.SMCInvalidations++
			dropped = true
		}
	}
	if dropped {
		m.chainEpoch++
	}
}

// chainTo returns the cached link from e to next, or nil when no valid
// link exists. A stale epoch clears the whole link set first.
func (e *transEntry) chainTo(next, epoch uint64) *chainLink {
	if e.linkEpoch != epoch {
		e.links = [chainLinks]chainLink{}
		e.linkVictim = 0
		e.linkEpoch = epoch
		return nil
	}
	for i := range e.links {
		if e.links[i].pc == next && e.links[i].e != nil {
			return &e.links[i]
		}
	}
	return nil
}

// addLink caches a resolved successor on e, evicting round-robin when
// the slots are full.
func (e *transEntry) addLink(next uint64, succ *transEntry, cnt *uint64) {
	for i := range e.links {
		if e.links[i].e == nil {
			e.links[i] = chainLink{pc: next, e: succ, cnt: cnt}
			return
		}
	}
	e.links[e.linkVictim] = chainLink{pc: next, e: succ, cnt: cnt}
	e.linkVictim = (e.linkVictim + 1) % chainLinks
}

// chainStep performs the block-boundary bookkeeping of the outer
// dispatch loop (profile count, translation thresholds) for the
// transfer e→next, and resolves next's translated region. A nil result
// surfaces the chain to the outer loop (next is interpreted, or was
// just translated and will be dispatched there).
func (m *Machine) chainStep(e *transEntry, next uint64) *transEntry {
	if lk := e.chainTo(next, m.chainEpoch); lk != nil {
		if lk.cnt != nil {
			*lk.cnt++
			// onEnter's thresholds, minus its map lookups. A trace
			// upgrade replaces the entry and bumps the epoch, so resolve
			// the successor fresh from the map.
			if asTrace, due := m.promotion(lk.e, *lk.cnt); due {
				m.translateWith(next, asTrace)
				return m.trans[next]
			}
		}
		return lk.e
	}
	// No valid link: run the full entry protocol, then cache the
	// resolution when the successor is translated. onEnter may itself
	// translate (and bump the epoch); re-check before caching so a
	// fresh link is never stamped with a stale epoch.
	m.onEnter(next)
	succ := m.trans[next]
	if succ == nil {
		return nil
	}
	if e.linkEpoch == m.chainEpoch {
		var cnt *uint64
		if _, bad := m.noTrans[next]; !bad {
			cnt = m.entries[next]
		}
		e.addLink(next, succ, cnt)
	}
	return succ
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
// terminal — a raised fault or an interrupt; nil means the chain
// surfaced cleanly and the outer loop continues at m.state.PC.
//
// Each transfer takes the outer loop's own steps — dispatch (profile
// attribution), the entry protocol (chainStep) and the
// MaxCycles/interrupt guard — so only the map lookups, register-file
// copies and tracer events are elided. The differential tests pin this
// equivalence down to exact cycle counts and trap identity.
func (m *Machine) runChain(pc uint64, e *transEntry) error {
	copy(m.vregs[:32], m.state.X[:])
	for n := 1; ; n++ {
		ei := m.dispatch(pc, e)
		if ei.Fault != nil {
			m.syncState(pc)
			return m.raise(ei.Fault, ei.FaultPC)
		}
		next := ei.NextPC
		succ := m.chainStep(e, next)
		if succ == nil || n >= chainBudget {
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
