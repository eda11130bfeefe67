package dbt

import (
	"sync"

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
// any translation-cache mutation (new install, deopt, blacklist, SMC
// invalidation) bumps the epoch, severing every link at once. A link
// may also carry the successor's profile counter so the per-entry
// profiling of the outer loop (m.entries) is preserved without a map
// lookup per transfer.

// chainLinks is the per-region successor cache size: fall-through,
// branch-taken and a couple of side-exit targets cover almost every
// region; anything beyond round-robins through the slots.
const chainLinks = 4

// defaultChainBudget bounds how many blocks chain back-to-back before
// surfacing to the outer loop (Config.ChainBudget overrides).
const defaultChainBudget = 64

// chainLink is one resolved successor: target entry PC, its translated
// region, and its profile counter (nil when the PC is blacklisted, in
// which case the slow path would not count it either).
type chainLink struct {
	pc  uint64
	e   *transEntry
	cnt *uint64
}

// transState owns the translation-state maps of one machine and the
// scheduler memory its regions compile through. The harness creates and
// releases thousands of short-lived machines per sweep; pooling keeps
// the map bucket storage and the grown scheduling graph alive across
// them.
type transState struct {
	entries  map[uint64]*uint64
	branches map[uint64]*brStat
	trans    map[uint64]*transEntry
	noTrans  map[uint64]struct{}
	sched    graph
}

var transPool = sync.Pool{New: func() any {
	return &transState{
		entries:  make(map[uint64]*uint64),
		branches: make(map[uint64]*brStat),
		trans:    make(map[uint64]*transEntry),
		noTrans:  make(map[uint64]struct{}),
	}
}}

// blockExtent computes the guest text range [lo, hi) a translated block
// covers, from the guest PCs stamped on its syllables (traces can reach
// below or above their entry).
func blockExtent(blk *vliw.Block) (lo, hi uint64) {
	lo, hi = blk.EntryPC, blk.EntryPC+4
	scan := func(sy *vliw.Syllable) {
		if sy.GuestPC == 0 {
			return
		}
		if sy.GuestPC < lo {
			lo = sy.GuestPC
		}
		if sy.GuestPC+4 > hi {
			hi = sy.GuestPC + 4
		}
	}
	for _, bun := range blk.Bundles {
		for i := range bun {
			scan(&bun[i])
		}
	}
	for _, rec := range blk.Recoveries {
		for i := range rec {
			scan(&rec[i])
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
				m.translateWith(next, asTrace, false)
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
// attribution, deopt check), the entry protocol (chainStep) and the
// MaxCycles/interrupt guard — so only the map lookups, register-file
// copies and tracer events are elided. The differential tests pin this
// equivalence down to exact cycle counts and trap identity.
func (m *Machine) runChain(pc uint64, e *transEntry, budget int) error {
	copy(m.vregs[:32], m.state.X[:])
	for n := 1; ; n++ {
		ei := m.dispatch(pc, e)
		if ei.Fault != nil {
			m.syncState(pc)
			return m.raise(ei.Fault, ei.FaultPC)
		}
		next := ei.NextPC
		succ := m.chainStep(e, next)
		if succ == nil || n >= budget {
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
