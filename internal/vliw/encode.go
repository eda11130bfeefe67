package vliw

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ghostbusters/internal/riscv"
)

// Binary encoding of translated blocks. Each syllable packs into one
// 64-bit word; immediates that do not fit in 16 bits go through a
// per-block constant pool (the long-immediate mechanism of wide VLIWs).
// The speculative memory operations keep distinct opcodes in the encoded
// form, as the paper requires of the VLIW ISA.
//
// A block's encoding is its word image followed by a GuestPC side
// table. Word image layout (64-bit little-endian words):
//
//	magic, EntryPC, FallPC
//	GuestInsts (low 32) | bundle width (high 32)
//	bundle count (low 32) | recovery count (high 32)
//	bundle slots, width per bundle, padding included
//	per recovery: its length, then its syllables
//	constant-pool length, then the pool
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
// GuestPC is not part of the word image: AppendBlock writes it to the
// side table after the words, so fault PCs, SMC extents and
// speculative-load attribution all survive the codec.
const blockMagic = 0x3130574C49564247 // "GBVLIW01", little-endian

// padWord is the word of a padding slot, Syllable{}: Rec 0 is rec+1 = 1.
const padWord = 1 << 35

// recMax is the largest value of the 12-bit rec+1 field; the encoder
// never emits it, so the decoder rejects it.
const recMax = 1<<12 - 1

var errTruncated = errors.New("vliw: truncated block image")

// appendWords appends the word image of b to dst, each bundle at full
// width.
func appendWords(dst []byte, b *Block) ([]byte, error) {
	width := b.Width
	if len(b.Slots) == 0 {
		width = 0
	}
	if width > MaxWidth {
		return nil, fmt.Errorf("vliw: bundle width %d exceeds %d", width, MaxWidth)
	}

	put := func(w uint64) { dst = binary.LittleEndian.AppendUint64(dst, w) }
	var pool []uint64
	var poolIdx map[int64]int
	encSyll := func(s *Syllable) error {
		if s.Kind > KCommit {
			return fmt.Errorf("vliw: cannot encode kind %d", s.Kind)
		}
		if s.Dst > 63 || s.Ra > 63 || s.Rb > 63 {
			return fmt.Errorf("vliw: register out of range in %s", s)
		}
		if s.Tag > 15 {
			return fmt.Errorf("vliw: tag %d out of range", s.Tag)
		}
		if s.Rec < -1 || s.Rec >= recMax-1 {
			return fmt.Errorf("vliw: recovery index %d out of range", s.Rec)
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
			if idx >= 1<<16 {
				return fmt.Errorf("vliw: constant pool overflow")
			}
			w |= 1<<47 | uint64(idx)<<48
		}
		put(w)
		return nil
	}

	put(blockMagic)
	put(b.EntryPC)
	put(b.FallPC)
	put(uint64(uint32(b.GuestInsts)) | uint64(width)<<32)
	put(uint64(uint32(len(b.Slots))) | uint64(uint32(len(b.RecStart)))<<32)
	var bun Bundle
	for i := range b.Slots {
		bun = b.AppendBundle(bun[:0], i)
		for j := range bun {
			if err := encSyll(&bun[j]); err != nil {
				return nil, err
			}
		}
	}
	for k := range b.RecStart {
		rec := b.Recovery(k)
		put(uint64(len(rec)))
		for i := range rec {
			if err := encSyll(&rec[i]); err != nil {
				return nil, err
			}
		}
	}
	put(uint64(len(pool)))
	for _, v := range pool {
		put(v)
	}
	return dst, nil
}

// ConsumeBlock decodes one block written by AppendBlock from the front
// of src into its dense form, GuestPCs included, and returns it with the
// number of bytes it read. It reads the word image and the side table in
// place and in step, bounds every count against len(src) before using it
// (the image may come from a shared, writable cache directory), and
// validates every syllable word, padding included, before dropping the
// padding. It rejects hostile input with an error, never a panic.
func ConsumeBlock(src []byte) (*Block, int, error) {
	nw := uint64(len(src) / 8)
	word := func(i uint64) uint64 { return binary.LittleEndian.Uint64(src[8*i:]) }
	if nw < 6 {
		return nil, 0, errTruncated
	}
	if m := word(0); m != blockMagic {
		return nil, 0, fmt.Errorf("vliw: bad magic %#x", m)
	}
	shape, counts := word(3), word(4)
	width, nBundles, nRec := shape>>32, uint64(uint32(counts)), counts>>32
	if width > MaxWidth || (width == 0) != (nBundles == 0) {
		return nil, 0, fmt.Errorf("vliw: bad bundle width %d for %d bundles", width, nBundles)
	}
	// The body needs a word per bundle slot, a length word per recovery
	// and the pool length word (slot words < 2^36, nRec < 2^32). The
	// walk keeps rp + (recoveries left) + 1 <= nw, so no bound
	// underflows. nSyl bounds the syllables the block keeps.
	slotWords := nBundles * width
	if 5+slotWords+nRec >= nw {
		return nil, 0, errTruncated
	}
	nSyl := uint64(0)
	for i := uint64(5); i < 5+slotWords; i++ {
		if word(i) != padWord {
			nSyl++
		}
	}
	rp := 5 + slotWords
	for left := nRec; left > 0; left-- {
		n := word(rp)
		if n > nw-rp-1-left {
			return nil, 0, errTruncated
		}
		rp += 1 + n
		nSyl += n
	}
	if nSyl > MaxSyllables {
		return nil, 0, fmt.Errorf("vliw: %d syllables exceed %d", nSyl, MaxSyllables)
	}
	poolLen := word(rp)
	if poolLen > nw-rp-1 {
		return nil, 0, errTruncated
	}
	pool := src[8*(rp+1) : 8*(rp+1+poolLen)]

	b := &Block{EntryPC: word(1), FallPC: word(2), GuestInsts: int(uint32(shape)), Width: int(width)}
	if nSyl > 0 {
		b.Syls = make([]Syllable, 0, nSyl)
	}
	// next decodes the syllable at word pos and its GuestPC at byte off.
	pos, off, pc := uint64(5), int(8*(rp+1+poolLen)), b.EntryPC
	next := func() (sy Syllable, err error) {
		if err := decodeSyllable(&sy, word(pos), pool); err != nil {
			return sy, err
		}
		pos++
		z, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return sy, errors.New("vliw: truncated GuestPC table")
		}
		off += k
		pc += z>>1 ^ -(z & 1)
		sy.GuestPC = pc
		return sy, nil
	}
	if nBundles > 0 {
		b.Slots = make([]Slots, nBundles)
	}
	for i := range b.Slots {
		b.Slots[i].Start = uint16(len(b.Syls))
		for j := range width {
			sy, err := next()
			if err != nil {
				return nil, 0, err
			}
			if !padding(sy) {
				b.Slots[i].Mask |= 1 << j
				b.Syls = append(b.Syls, sy)
			}
		}
	}
	if nRec > 0 {
		b.RecStart = make([]uint16, nRec)
	}
	for k := range b.RecStart {
		b.RecStart[k] = uint16(len(b.Syls))
		n := word(pos)
		pos++
		for range n {
			sy, err := next()
			if err != nil {
				return nil, 0, err
			}
			b.Syls = append(b.Syls, sy)
		}
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

// AppendBlock appends the encoding of b to dst: its word image, then
// the GuestPC side table — per syllable, bundle slots first (padding's
// GuestPC is 0) and recoveries after, the zigzag uvarint of its GuestPC
// minus the previous syllable's (EntryPC before the first).
func AppendBlock(dst []byte, b *Block) ([]byte, error) {
	dst, err := appendWords(dst, b)
	if err != nil {
		return nil, err
	}
	prev := b.EntryPC
	put := func(s []Syllable) {
		for i := range s {
			d := s[i].GuestPC - prev
			dst = binary.AppendUvarint(dst, d<<1^uint64(int64(d)>>63))
			prev = s[i].GuestPC
		}
	}
	var bun Bundle
	for i := range b.Slots {
		bun = b.AppendBundle(bun[:0], i)
		put(bun)
	}
	put(b.Syls[b.bundleSyls():])
	return dst, nil
}
