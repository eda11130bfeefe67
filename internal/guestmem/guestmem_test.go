package guestmem

import (
	"testing"
	"testing/quick"

	"ghostbusters/internal/trap"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(0x1000, 0x10000)
	f := func(off uint16, val uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr := 0x1000 + uint64(off)
		if addr+uint64(size) > m.Top() {
			// Accesses straddling the top must fault, not wrap.
			if err := m.Write(addr, size, val); err == nil {
				return false
			}
			return true
		}
		if err := m.Write(addr, size, val); err != nil {
			return false
		}
		got, err := m.Read(addr, size)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return got == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLittleEndian(t *testing.T) {
	m := New(0, 64)
	if err := m.Write(0, 8, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b, _ := m.ReadBytes(0, 8)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
	v, _ := m.Read(2, 2)
	if v != 0x0506 {
		t.Fatalf("read(2,2) = %#x", v)
	}
}

func TestBounds(t *testing.T) {
	m := New(0x1000, 0x100)
	cases := []struct {
		addr uint64
		size int
	}{
		{0xFFF, 1},      // below base
		{0x1100, 1},     // past top
		{0x10FF, 2},     // straddles top
		{^uint64(0), 8}, // wraparound
	}
	for _, c := range cases {
		if _, err := m.Read(c.addr, c.size); err == nil {
			t.Errorf("Read(%#x, %d) should fault", c.addr, c.size)
		}
		if err := m.Write(c.addr, c.size, 0); err == nil {
			t.Errorf("Write(%#x, %d) should fault", c.addr, c.size)
		}
	}
	if _, err := m.Read(0x1000, 8); err != nil {
		t.Errorf("in-range read faulted: %v", err)
	}
	if _, err := m.Read(0x10F8, 8); err != nil {
		t.Errorf("last-qword read faulted: %v", err)
	}
}

func TestProtection(t *testing.T) {
	m := New(0, 0x1000)
	if err := m.Write(0x100, 8, 0xABCD); err != nil {
		t.Fatal(err)
	}
	m.Protect(0x100, 0x108)

	if _, err := m.Read(0x100, 8); err == nil {
		t.Fatal("protected read should fault")
	}
	// Overlapping partial reads fault too.
	if _, err := m.Read(0xFC, 8); err == nil {
		t.Fatal("read overlapping protected region should fault")
	}
	if _, err := m.Read(0x104, 1); err == nil {
		t.Fatal("read inside protected region should fault")
	}
	// Adjacent reads are fine.
	if _, err := m.Read(0x108, 8); err != nil {
		t.Fatalf("read after region faulted: %v", err)
	}
	if _, err := m.Read(0xF8, 8); err != nil {
		t.Fatalf("read before region faulted: %v", err)
	}
	// Writes are not protected (read-protection only).
	if err := m.Write(0x100, 8, 1); err != nil {
		t.Fatalf("write to protected region faulted: %v", err)
	}
	// Speculative read squashes nothing: value flows.
	v, ok := m.ReadSpeculative(0x100, 8)
	if !ok || v != 1 {
		t.Fatalf("speculative read = %#x ok=%v", v, ok)
	}
	// Clearing protection restores access.
	m.Protect(0, 0)
	if _, err := m.Read(0x100, 8); err != nil {
		t.Fatalf("read after unprotect faulted: %v", err)
	}
}

func TestReadSpeculativeOutOfRange(t *testing.T) {
	m := New(0x1000, 0x100)
	if _, ok := m.ReadSpeculative(0x2000, 8); ok {
		t.Fatal("out-of-range speculative read should squash")
	}
	if _, ok := m.ReadSpeculative(0x1000, 8); !ok {
		t.Fatal("in-range speculative read should succeed")
	}
}

func TestBytesHelpers(t *testing.T) {
	m := New(0, 64)
	if err := m.WriteBytes(8, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, err := m.ReadBytes(8, 3)
	if err != nil || b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("ReadBytes = %v, %v", b, err)
	}
	if err := m.WriteBytes(62, []byte{1, 2, 3}); err == nil {
		t.Fatal("WriteBytes past end should fault")
	}
	if _, err := m.ReadBytes(62, 3); err == nil {
		t.Fatal("ReadBytes past end should fault")
	}
}

func TestReadWord32(t *testing.T) {
	m := New(0x1000, 64)
	_ = m.Write(0x1004, 4, 0xDEADBEEF)
	w, err := m.ReadWord32(0x1004)
	if err != nil || w != 0xDEADBEEF {
		t.Fatalf("ReadWord32 = %#x, %v", w, err)
	}
	if _, err := m.ReadWord32(0x1040); err == nil {
		t.Fatal("fetch past end should fault")
	}
}

func TestStrictAlign(t *testing.T) {
	m := New(0x1000, 0x100)
	// Default: unaligned data accesses are handled in hardware.
	if err := m.Write(0x1001, 8, 0x1122334455667788); err != nil {
		t.Fatalf("unaligned write without StrictAlign faulted: %v", err)
	}
	if v, err := m.Read(0x1001, 8); err != nil || v != 0x1122334455667788 {
		t.Fatalf("unaligned read without StrictAlign = %#x, %v", v, err)
	}

	m.StrictAlign = true
	for _, c := range []struct {
		addr uint64
		size int
	}{{0x1001, 2}, {0x1002, 4}, {0x1004, 8}} {
		_, err := m.Read(c.addr, c.size)
		f := trap.As(err)
		if f == nil || f.Kind != trap.MisalignedAccess || f.Addr != c.addr {
			t.Errorf("Read(%#x, %d) = %v, want misaligned-access at that addr", c.addr, c.size, err)
		}
		if err := m.Write(c.addr, c.size, 0); !trap.IsKind(err, trap.MisalignedAccess) {
			t.Errorf("Write(%#x, %d) = %v, want misaligned-access", c.addr, c.size, err)
		}
		if _, ok := m.ReadSpeculative(c.addr, c.size); ok {
			t.Errorf("speculative Read(%#x, %d) should squash under StrictAlign", c.addr, c.size)
		}
	}
	// Aligned accesses and byte accesses are unaffected.
	if _, err := m.Read(0x1008, 8); err != nil {
		t.Errorf("aligned read faulted: %v", err)
	}
	if _, err := m.Read(0x1003, 1); err != nil {
		t.Errorf("byte read faulted: %v", err)
	}
	// Reset clears the flag (pooled reuse must not leak strictness).
	m.Reset()
	if m.StrictAlign {
		t.Error("Reset must clear StrictAlign")
	}
}

func TestFetchAlwaysAligned(t *testing.T) {
	m := New(0x1000, 64) // StrictAlign off: fetch is still strict
	err := func() error { _, err := m.ReadWord32(0x1002); return err }()
	f := trap.As(err)
	if f == nil || f.Kind != trap.MisalignedAccess || f.Addr != 0x1002 {
		t.Fatalf("misaligned fetch = %v, want misaligned-access at 0x1002", err)
	}
	if !trap.IsKind(func() error { _, err := m.ReadWord32(0x2000); return err }(), trap.OutOfRangeAccess) {
		t.Fatal("out-of-range fetch should be out-of-range-access")
	}
}

func TestGeometryAccessors(t *testing.T) {
	m := New(0x2000, 0x800)
	if m.Base() != 0x2000 || m.Size() != 0x800 || m.Top() != 0x2800 {
		t.Fatalf("geometry: base=%#x size=%#x top=%#x", m.Base(), m.Size(), m.Top())
	}
}

// Read and Write keep the little-endian byte layout at every size: the
// scalar sizes (one word load or store each), unaligned with StrictAlign
// off, ending at the last byte of memory, and the byte loop that serves
// any other size. The bytes around the access stay untouched.
func TestScalarSizesKeepByteLayout(t *testing.T) {
	const base, size = 0x1000, 0x100
	const val uint64 = 0x8877665544332211
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, addr := range []uint64{base, base + 1, base + 3, base + 0x41, base + size - uint64(n)} {
			m := New(base, size)
			fill := make([]byte, size)
			for i := range fill {
				fill[i] = 0xA5
			}
			if err := m.WriteBytes(base, fill); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(addr, n, val); err != nil {
				t.Fatalf("Write(%#x, %d): %v", addr, n, err)
			}
			got, err := m.ReadBytes(base, size)
			if err != nil {
				t.Fatal(err)
			}
			off := int(addr - base)
			for i := range got {
				want := byte(0xA5)
				if i >= off && i < off+n {
					want = byte(val >> (8 * (i - off)))
				}
				if got[i] != want {
					t.Fatalf("Write(%#x, %d): byte %#x = %#x, want %#x", addr, n, base+i, got[i], want)
				}
			}
			mask := uint64(1)<<(8*n) - 1
			if n == 8 {
				mask = ^uint64(0)
			}
			if v, err := m.Read(addr, n); err != nil || v != val&mask {
				t.Errorf("Read(%#x, %d) = %#x, %v, want %#x", addr, n, v, err, val&mask)
			}
			if v, ok := m.ReadSpeculative(addr, n); !ok || v != val&mask {
				t.Errorf("ReadSpeculative(%#x, %d) = %#x, %v, want %#x", addr, n, v, ok, val&mask)
			}
		}
		m := New(base, size)
		if _, err := m.Read(base+size-uint64(n)+1, n); !trap.IsKind(err, trap.OutOfRangeAccess) {
			t.Errorf("Read(%d) one byte past the end = %v, want out-of-range-access", n, err)
		}
		if err := m.Write(base+size-uint64(n)+1, n, val); !trap.IsKind(err, trap.OutOfRangeAccess) {
			t.Errorf("Write(%d) one byte past the end = %v, want out-of-range-access", n, err)
		}
	}
}
