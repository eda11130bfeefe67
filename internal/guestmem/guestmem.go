// Package guestmem implements the flat guest physical memory of the
// simulated DBT-based processor, including an optional protected region
// used to model "a memory location which should not be readable" in the
// Spectre proof-of-concept (architectural reads fault; dismissable
// speculative loads squash the fault but still touch the cache).
package guestmem

import (
	"encoding/binary"

	"ghostbusters/internal/trap"
)

// pageShift is the dirty-tracking granularity: 4 KiB pages. Coarse enough
// that marking a page is one store on the write path, fine enough that a
// Reset of a typical guest (text + data at the bottom, a little stack at
// the top) touches kilobytes instead of the whole image.
const pageShift = 12

// Memory is a flat little-endian guest memory starting at Base.
type Memory struct {
	base uint64
	data []byte

	// dirty marks pages that may hold nonzero bytes. Reset zeroes only
	// those, which is what makes reusing a multi-megabyte guest image
	// cheap: allocating (and the runtime zeroing) a fresh 16 MiB buffer
	// per run used to dominate the whole simulator's host profile.
	dirty []bool

	protStart, protEnd uint64 // [start, end) read-protected when protEnd > protStart

	// StrictAlign makes scalar data accesses trap on misalignment. The
	// default (false) matches the paper's platforms, which handle
	// unaligned data accesses in hardware — the Spectre v4 PoC relies on
	// one. Instruction fetch is always strictly aligned (IALIGN=32).
	StrictAlign bool
}

// fault builds a typed guest trap for an invalid access. Guest memory
// knows only the kind and the address; the interpreter and the VLIW core
// enrich the same fault with the guest PC, and the machine dispatch loop
// with the cycle count and translated-block identity.
func fault(kind trap.Kind, addr uint64, size int, why string) *trap.Fault {
	f := trap.Newf(kind, "%s (size %d)", why, size)
	f.Addr = addr
	return f
}

// New allocates size bytes of guest memory based at base.
func New(base, size uint64) *Memory {
	return &Memory{
		base:  base,
		data:  make([]byte, size),
		dirty: make([]bool, (size+(1<<pageShift)-1)>>pageShift),
	}
}

// Reset restores the memory to its freshly-allocated state — all bytes
// zero, protection cleared — zeroing only the pages that were written.
func (m *Memory) Reset() {
	for p, d := range m.dirty {
		if !d {
			continue
		}
		lo := p << pageShift
		hi := lo + 1<<pageShift
		if hi > len(m.data) {
			hi = len(m.data)
		}
		clear(m.data[lo:hi])
		m.dirty[p] = false
	}
	m.protStart, m.protEnd = 0, 0
	m.StrictAlign = false
}

// markDirty records that [addr, addr+size) was written. Bounds are
// already validated by the caller.
func (m *Memory) markDirty(addr uint64, size int) {
	lo := (addr - m.base) >> pageShift
	hi := (addr - m.base + uint64(size) - 1) >> pageShift
	m.dirty[lo] = true
	if hi != lo {
		for p := lo + 1; p <= hi; p++ {
			m.dirty[p] = true
		}
	}
}

// Base returns the lowest valid guest address.
func (m *Memory) Base() uint64 { return m.base }

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// Top returns one past the highest valid guest address.
func (m *Memory) Top() uint64 { return m.base + uint64(len(m.data)) }

// Protect marks [start, end) as read-protected. Architectural loads from
// the region fault. Pass start == end to clear protection.
func (m *Memory) Protect(start, end uint64) {
	m.protStart, m.protEnd = start, end
}

// Protected reports whether any byte of [addr, addr+size) is protected.
func (m *Memory) Protected(addr uint64, size int) bool {
	return m.protEnd > m.protStart && addr < m.protEnd && addr+uint64(size) > m.protStart
}

func (m *Memory) check(addr uint64, size int) error {
	if addr < m.base || addr+uint64(size) > m.Top() || addr+uint64(size) < addr {
		return fault(trap.OutOfRangeAccess, addr, size, "access outside guest memory")
	}
	return nil
}

// checkScalar validates a scalar data access of size 1, 2, 4 or 8
// bytes: in range always, and aligned to its own size when StrictAlign
// is set.
func (m *Memory) checkScalar(addr uint64, size int) error {
	if m.StrictAlign && addr&uint64(size-1) != 0 {
		return fault(trap.MisalignedAccess, addr, size, "misaligned scalar access")
	}
	return m.check(addr, size)
}

// Read returns size bytes at addr as a zero-extended little-endian value.
// It enforces natural alignment and the protected region.
func (m *Memory) Read(addr uint64, size int) (uint64, error) {
	if err := m.checkScalar(addr, size); err != nil {
		return 0, err
	}
	if m.Protected(addr, size) {
		return 0, fault(trap.ProtectedAccess, addr, size, "read of protected region")
	}
	return m.readRaw(addr, size), nil
}

// ReadSpeculative is the dismissable-load path: faults (range, alignment
// or protection) are squashed and report ok=false with a zero value,
// exactly like the VLIW ldd opcode. The caller still models the cache
// fill for in-range addresses.
func (m *Memory) ReadSpeculative(addr uint64, size int) (val uint64, ok bool) {
	if m.checkScalar(addr, size) != nil {
		return 0, false
	}
	// Protected data CAN be read speculatively: that is the leak the
	// paper demonstrates. The fault is squashed, the value flows.
	return m.readRaw(addr, size), true
}

// readRaw reads an in-range value: one little-endian word load for the
// scalar sizes, a byte loop for any other.
func (m *Memory) readRaw(addr uint64, size int) uint64 {
	b := m.data[addr-m.base:]
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of val at addr. Like Read, it
// enforces natural alignment.
func (m *Memory) Write(addr uint64, size int, val uint64) error {
	if err := m.checkScalar(addr, size); err != nil {
		return err
	}
	if size > 0 {
		m.markDirty(addr, size)
	}
	b := m.data[addr-m.base:]
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(b, val)
	default:
		for i := 0; i < size; i++ {
			b[i] = byte(val >> (8 * i))
		}
	}
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.data[addr-m.base:])
	return out, nil
}

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	if err := m.check(addr, len(b)); err != nil {
		return err
	}
	if len(b) > 0 {
		m.markDirty(addr, len(b))
	}
	copy(m.data[addr-m.base:], b)
	return nil
}

// ReadWord32 fetches a 32-bit instruction word (no protection check:
// instruction fetch is not part of the modelled side channel). A
// misaligned or out-of-range fetch address always faults, regardless of
// StrictAlign — instructions are 4-byte aligned on this machine.
func (m *Memory) ReadWord32(addr uint64) (uint32, error) {
	if addr&3 != 0 {
		return 0, fault(trap.MisalignedAccess, addr, 4, "misaligned instruction fetch")
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.data[addr-m.base:]), nil
}
