package riscv

// Predecode is the interpreter's decoded-instruction side table: a dense
// array covering one contiguous text region, filled lazily the first time
// each PC is interpreted. Revisiting a PC — the common case in the
// profile-then-translate loop of a DBT system — becomes a table load
// instead of a memory fetch plus a full field-by-field decode, the same
// trick Transmeta's CMS and QEMU's TCG apply one level up with translated
// code.
//
// Correctness mirrors the DBT engine's self-modifying-code discipline:
// every guest store is reported to Invalidate (the dbt.Machine wires the
// bus's store hook here), so a program that writes over its own text sees
// the new bytes the next time the line is interpreted. PCs outside the
// covered region (or misaligned ones) simply fall back to fetch+decode,
// so the table is an accelerator, never a semantic change.
type Predecode struct {
	base  uint64 // first covered PC, 4-byte aligned
	limit uint64 // one past the last covered byte
	insts []Inst
	valid []bool

	stats PredecodeStats
}

// PredecodeStats counts side-table effectiveness.
type PredecodeStats struct {
	Hits          uint64 // instructions served from the table
	Fills         uint64 // decodes that populated a slot
	Bypasses      uint64 // PCs outside the covered region (fetch+decode)
	Invalidations uint64 // slots cleared by stores over text
}

// NewPredecode builds a table covering words instructions starting at
// base. A nil *Predecode is valid everywhere below and always bypasses.
func NewPredecode(base uint64, words int) *Predecode {
	p := new(Predecode)
	p.Reset(base, words)
	return p
}

// Reset returns p to the state NewPredecode(base, words) builds: no
// valid slot and zero statistics. It reuses p's slices when they hold
// words entries, so a machine that takes over another's table allocates
// nothing.
func (p *Predecode) Reset(base uint64, words int) {
	if words < 0 {
		words = 0
	}
	insts, valid := p.insts, p.valid
	if cap(insts) >= words && cap(valid) >= words {
		insts, valid = insts[:words], valid[:words]
		clear(insts)
		clear(valid)
	} else {
		insts, valid = make([]Inst, words), make([]bool, words)
	}
	*p = Predecode{
		base:  base &^ 3,
		limit: (base &^ 3) + 4*uint64(words),
		insts: insts,
		valid: valid,
	}
}

// Covers reports whether pc is a cacheable slot of the table.
func (p *Predecode) Covers(pc uint64) bool {
	return p != nil && pc >= p.base && pc < p.limit && (pc-p.base)&3 == 0
}

// Stats returns a copy of the counters.
func (p *Predecode) Stats() PredecodeStats {
	if p == nil {
		return PredecodeStats{}
	}
	return p.stats
}

// fetch returns the decoded instruction at pc, serving it from the table
// when possible and populating the slot on first touch. Out-of-range or
// misaligned PCs bypass the table entirely.
func (p *Predecode) fetch(pc uint64, bus Bus) (Inst, error) {
	if !p.Covers(pc) {
		if p != nil {
			p.stats.Bypasses++
		}
		word, err := bus.Fetch(pc)
		if err != nil {
			return Inst{}, err
		}
		return Decode(word), nil
	}
	i := (pc - p.base) >> 2
	if p.valid[i] {
		p.stats.Hits++
		return p.insts[i], nil
	}
	word, err := bus.Fetch(pc)
	if err != nil {
		return Inst{}, err
	}
	in := Decode(word)
	p.insts[i] = in
	p.valid[i] = true
	p.stats.Fills++
	return in, nil
}

// Invalidate clears every slot overlapping the stored bytes
// [addr, addr+size). It is called on every guest store (the bus hook), so
// the fast path is a single range rejection for the overwhelmingly common
// case of data stores.
func (p *Predecode) Invalidate(addr uint64, size int) {
	if p == nil || size <= 0 || addr >= p.limit || addr+uint64(size) <= p.base {
		return
	}
	lo := addr
	if lo < p.base {
		lo = p.base
	}
	hi := addr + uint64(size)
	if hi > p.limit {
		hi = p.limit
	}
	for i := (lo - p.base) >> 2; i <= (hi-1-p.base)>>2; i++ {
		if p.valid[i] {
			p.valid[i] = false
			p.stats.Invalidations++
		}
	}
}

// InvalidateAll clears the whole table.
func (p *Predecode) InvalidateAll() {
	if p == nil {
		return
	}
	for i := range p.valid {
		if p.valid[i] {
			p.valid[i] = false
			p.stats.Invalidations++
		}
	}
}
