package vliw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"ghostbusters/internal/riscv"
)

// Binary encoding of translated blocks: the block's one dense form, as
// the dispatch table indexes it. Each syllable packs into one 64-bit
// word; immediates that do not fit in 16 bits go through a per-block
// constant pool (the long-immediate mechanism of wide VLIWs). The
// speculative memory operations keep distinct opcodes in the encoded
// form, as the paper requires of the VLIW ISA.
//
// Block layout (little-endian throughout):
//
//	5 header words   magic, EntryPC, FallPC,
//	                 GuestInsts (low 32) | bundle width (high 32),
//	                 counts: bundles, recoveries, syllables and pool
//	                 entries, 16 bits each from the low end
//	uint16 per bundle     its Slots.Mask (Start is the running popcount)
//	uint16 per recovery   its RecStart
//	uint64 per syllable   Syls in order, recoveries included, no padding
//	uint64 per pool entry the constant pool
//	uvarint per syllable  zigzag GuestPC minus the previous syllable's
//	                      (EntryPC before the first), in Syls order
//
// Syllable word layout (LSB first):
//
//	[0:5)   kind      (5 bits)
//	[5:13)  op        (8 bits)
//	[13:19) dst       (6 bits)
//	[19:25) ra        (6 bits)
//	[25:31) rb        (6 bits)
//	[31:35) tag       (4 bits)
//	[35:47) rec+1     (12 bits, 0 = none)
//	[47]    immPool   (1 = imm is a pool index)
//	[48:64) imm16 / pool index
//
// GuestPCs ride along, so fault PCs, SMC extents and speculative-load
// attribution all survive the codec.
const blockMagic = 0x3330574C49564247 // "GBVLIW03", little-endian

// headerBytes is the size of the header, and of an empty block.
const headerBytes = 5 * 8

// recMax is the largest value of the 12-bit rec+1 field; the encoder
// never emits it, so the decoder rejects it.
const recMax = 1<<12 - 1

var errTruncated = errors.New("vliw: truncated block image")

// AppendBlock appends the encoding of b to dst.
func AppendBlock(dst []byte, b *Block) ([]byte, error) {
	width := b.Width
	if len(b.Slots) == 0 {
		width = 0
	}
	if width > MaxWidth {
		return nil, fmt.Errorf("vliw: bundle width %d exceeds %d", width, MaxWidth)
	}
	if len(b.Slots) > 0xFFFF || len(b.RecStart) > 0xFFFF || len(b.Syls) > MaxSyllables {
		return nil, fmt.Errorf("vliw: %d bundles, %d recoveries or %d syllables exceed %d",
			len(b.Slots), len(b.RecStart), len(b.Syls), 0xFFFF)
	}
	head := len(dst)
	for _, w := range [...]uint64{blockMagic, b.EntryPC, b.FallPC, uint64(uint32(b.GuestInsts)) | uint64(width)<<32, 0} {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	for _, s := range b.Slots {
		dst = binary.LittleEndian.AppendUint16(dst, s.Mask)
	}
	for _, r := range b.RecStart {
		dst = binary.LittleEndian.AppendUint16(dst, r)
	}
	// The pool holds at most one entry per syllable, so its indices fit
	// in 16 bits.
	var pool []uint64
	var poolIdx map[int64]int
	for i := range b.Syls {
		s := &b.Syls[i]
		if s.Kind > KCommit {
			return nil, fmt.Errorf("vliw: cannot encode kind %d", s.Kind)
		}
		if s.Dst > 63 || s.Ra > 63 || s.Rb > 63 {
			return nil, fmt.Errorf("vliw: register out of range in %s", s)
		}
		if s.Tag > 15 {
			return nil, fmt.Errorf("vliw: tag %d out of range", s.Tag)
		}
		if s.Rec < -1 || s.Rec >= recMax-1 {
			return nil, fmt.Errorf("vliw: recovery index %d out of range", s.Rec)
		}
		w := uint64(s.Kind) | uint64(s.Op)<<5 | uint64(s.Dst)<<13 |
			uint64(s.Ra)<<19 | uint64(s.Rb)<<25 | uint64(s.Tag)<<31 |
			uint64(s.Rec+1)<<35
		if s.Imm >= -(1<<15) && s.Imm < 1<<15 {
			w |= uint64(uint16(s.Imm)) << 48
		} else {
			idx, ok := poolIdx[s.Imm]
			if !ok {
				if poolIdx == nil {
					poolIdx = make(map[int64]int)
				}
				idx = len(pool)
				pool = append(pool, uint64(s.Imm))
				poolIdx[s.Imm] = idx
			}
			w |= 1<<47 | uint64(idx)<<48
		}
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	for _, v := range pool {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	binary.LittleEndian.PutUint64(dst[head+32:], uint64(len(b.Slots))|uint64(len(b.RecStart))<<16|
		uint64(len(b.Syls))<<32|uint64(len(pool))<<48)
	prev := b.EntryPC
	for i := range b.Syls {
		d := b.Syls[i].GuestPC - prev
		dst = binary.AppendUvarint(dst, d<<1^uint64(int64(d)>>63))
		prev = b.Syls[i].GuestPC
	}
	return dst, nil
}

// ConsumeBlock decodes one block written by AppendBlock from the front
// of src, GuestPCs included, and returns it with the number of bytes it
// read. The image may come from a shared, writable cache directory, so
// it checks every count against len(src) before using one and rejects
// hostile input with an error, never a panic. It accepts only the
// canonical dense form: every mask bit below the width, the bundles'
// syllables followed by the recoveries in order, and no padding in an
// occupied slot.
func ConsumeBlock(src []byte) (*Block, int, error) {
	if len(src) < headerBytes {
		return nil, 0, errTruncated
	}
	le := binary.LittleEndian
	if m := le.Uint64(src); m != blockMagic {
		return nil, 0, fmt.Errorf("vliw: bad magic %#x", m)
	}
	shape, counts := le.Uint64(src[24:]), le.Uint64(src[32:])
	width := shape >> 32
	nBundles, nRec, nSyl, nPool := int(uint16(counts)), int(uint16(counts>>16)), int(uint16(counts>>32)), int(counts>>48)
	if width > MaxWidth || (width == 0) != (nBundles == 0) {
		return nil, 0, fmt.Errorf("vliw: bad bundle width %d for %d bundles", width, nBundles)
	}
	// Every count is below 2^16, so no offset overflows. Each GuestPC
	// delta takes at least one byte.
	recs := headerBytes + 2*nBundles
	syls := recs + 2*nRec
	pool := syls + 8*nSyl
	pcs := pool + 8*nPool
	if pcs+nSyl > len(src) {
		return nil, 0, errTruncated
	}

	b := &Block{EntryPC: le.Uint64(src[8:]), FallPC: le.Uint64(src[16:]), GuestInsts: int(uint32(shape)), Width: int(width)}
	inBundles := 0
	if nBundles > 0 {
		b.Slots = make([]Slots, nBundles)
	}
	for i := range b.Slots {
		m := le.Uint16(src[headerBytes+2*i:])
		if m>>width != 0 {
			return nil, 0, fmt.Errorf("vliw: bundle %d mask %#x has a bit at or above width %d", i, m, width)
		}
		b.Slots[i] = Slots{Start: uint16(inBundles), Mask: m}
		inBundles += bits.OnesCount16(m)
	}
	if inBundles > nSyl || nRec == 0 && inBundles != nSyl {
		return nil, 0, fmt.Errorf("vliw: bundles hold %d syllables of %d with %d recoveries", inBundles, nSyl, nRec)
	}
	if nRec > 0 {
		b.RecStart = make([]uint16, nRec)
	}
	// Recovery 0 starts where the bundles end; the others follow in
	// order and end by the last syllable.
	lo := inBundles
	for k := range b.RecStart {
		r := int(le.Uint16(src[recs+2*k:]))
		if r < lo || r > nSyl || k == 0 && r != lo {
			return nil, 0, fmt.Errorf("vliw: recovery %d starts out of order or range at syllable %d of %d", k, r, nSyl)
		}
		b.RecStart[k], lo = uint16(r), r
	}

	if nSyl > 0 {
		b.Syls = make([]Syllable, nSyl)
	}
	poolWords, off, pc := src[pool:pcs], pcs, b.EntryPC
	for i := range b.Syls {
		sy := &b.Syls[i]
		if err := decodeSyllable(sy, le.Uint64(src[syls+8*i:]), poolWords); err != nil {
			return nil, 0, err
		}
		if i < inBundles && padding(*sy) {
			return nil, 0, fmt.Errorf("vliw: padding in occupied slot (syllable %d)", i)
		}
		z, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return nil, 0, errors.New("vliw: truncated GuestPC table")
		}
		off += k
		pc += z>>1 ^ -(z & 1)
		sy.GuestPC = pc
	}
	return b, off, nil
}

// decodeSyllable unpacks one syllable word into s, resolving pool
// indices against pool (the constant pool's raw little-endian words).
func decodeSyllable(s *Syllable, w uint64, pool []byte) error {
	s.Kind = Kind(w & 0x1F)
	if s.Kind > KCommit {
		return fmt.Errorf("vliw: bad kind %d", s.Kind)
	}
	rec := w >> 35 & 0xFFF
	if rec == recMax {
		return fmt.Errorf("vliw: recovery index %d out of range", rec-1)
	}
	s.Op = riscv.Op(uint8(w >> 5 & 0xFF))
	s.Dst = uint8(w >> 13 & 0x3F)
	s.Ra = uint8(w >> 19 & 0x3F)
	s.Rb = uint8(w >> 25 & 0x3F)
	s.Tag = uint8(w >> 31 & 0xF)
	s.Rec = int16(rec) - 1
	idx := uint16(w >> 48)
	if w>>47&1 == 0 {
		s.Imm = int64(int16(idx))
		return nil
	}
	if int(idx) >= len(pool)/8 {
		return fmt.Errorf("vliw: pool index %d out of range", idx)
	}
	s.Imm = int64(binary.LittleEndian.Uint64(pool[8*int(idx):]))
	return nil
}
