package riscv

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Program is an assembled guest image. A program is immutable once
// assembled (or, for a hand-built one, once first loaded): machines of
// many goroutines share it, and Digest memoises a hash of its image.
// Patch a copy of the text or data, never a program already handed to
// a machine.
type Program struct {
	Entry    uint64
	TextBase uint64
	Text     []uint32 // instruction words
	DataBase uint64
	Data     []byte
	Symbols  map[string]uint64

	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// Digest returns the SHA-256 of the guest image: entry point, text base
// and words, data base and bytes. It is computed on the first call and
// memoised, so a program must not change after it (see Program).
func (p *Program) Digest() [sha256.Size]byte {
	p.digestOnce.Do(func() {
		h := sha256.New()
		var w [8]byte
		u64 := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
		u64(p.Entry)
		u64(p.TextBase)
		u64(uint64(len(p.Text)))
		for _, ins := range p.Text {
			binary.LittleEndian.PutUint32(w[:4], ins)
			h.Write(w[:4])
		}
		u64(p.DataBase)
		u64(uint64(len(p.Data)))
		h.Write(p.Data)
		h.Sum(p.digest[:0])
	})
	return p.digest
}

// Symbol returns the address of a label defined in the program.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// MustSymbol is Symbol for labels known to exist.
func (p *Program) MustSymbol(name string) uint64 {
	a, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("riscv: undefined symbol %q", name))
	}
	return a
}

// AsmOptions configures image layout.
type AsmOptions struct {
	TextBase  uint64 // default 0x10000
	DataAlign uint64 // data section alignment after text, default 0x1000
}

// DefaultAsmOptions returns the standard layout.
func DefaultAsmOptions() AsmOptions {
	return AsmOptions{TextBase: 0x10000, DataAlign: 0x1000}
}

// AsmError reports an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// stmt is one parsed source statement.
type stmt struct {
	line     int
	labels   []string
	mnemonic string   // "" for label-only lines
	args     []string // comma-separated operands
}

// item is a pass-1 placed statement.
type item struct {
	stmt
	sec  section
	off  uint64 // offset within section
	size uint64 // bytes
}

type assembler struct {
	opts     AsmOptions
	items    []item
	symbols  map[string]uint64 // final addresses
	equs     map[string]int64  // .equ constants
	textSz   uint64
	dataSz   uint64
	dataBase uint64
}

// Assemble translates RV64IM assembly source into a Program. The dialect
// supports labels, the usual pseudo-instructions (li, la, mv, call, ret,
// beqz, ...), and the data directives .text/.data/.align/.byte/.half/
// .word/.dword/.space/.asciz/.equ. Entry is the address of "main" or
// "_start" when defined, else the start of .text.
func Assemble(src string, opts ...AsmOptions) (*Program, error) {
	o := DefaultAsmOptions()
	if len(opts) > 0 {
		o = opts[0]
		if o.TextBase == 0 {
			o.TextBase = 0x10000
		}
		if o.DataAlign == 0 {
			o.DataAlign = 0x1000
		}
	}
	a := &assembler{
		opts:    o,
		symbols: make(map[string]uint64),
		equs:    make(map[string]int64),
	}
	stmts, err := parseSource(src)
	if err != nil {
		return nil, err
	}
	if err := a.layout(stmts); err != nil {
		return nil, err
	}
	return a.emit()
}

// MustAssemble is Assemble for sources known valid (generated code, tests).
func MustAssemble(src string, opts ...AsmOptions) *Program {
	p, err := Assemble(src, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// parseSource splits the source into statements.
func parseSource(src string) ([]stmt, error) {
	var out []stmt
	for i, line := range strings.Split(src, "\n") {
		ln := i + 1
		if idx := strings.IndexAny(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		if idx := strings.Index(line, "//"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var s stmt
		s.line = ln
		// Peel off leading labels.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(line[:idx])
			if !isIdent(head) {
				break
			}
			s.labels = append(s.labels, head)
			line = strings.TrimSpace(line[idx+1:])
		}
		if line != "" {
			fields := strings.SplitN(line, " ", 2)
			s.mnemonic = strings.ToLower(strings.TrimSpace(fields[0]))
			if len(fields) == 2 {
				s.args = splitArgs(fields[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// splitArgs splits an operand list on top-level commas, honouring quotes.
func splitArgs(s string) []string {
	var args []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			args = append(args, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if t := strings.TrimSpace(cur.String()); t != "" || len(args) > 0 {
		args = append(args, t)
	}
	return args
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// layout is pass 1: compute sizes, place statements, define symbols.
func (a *assembler) layout(stmts []stmt) error {
	sec := secText
	offs := map[section]uint64{}
	pending := map[string]struct {
		sec section
		off uint64
	}{}

	for _, s := range stmts {
		for _, lbl := range s.labels {
			if _, dup := pending[lbl]; dup {
				return &AsmError{s.line, fmt.Sprintf("duplicate label %q", lbl)}
			}
			pending[lbl] = struct {
				sec section
				off uint64
			}{sec, offs[sec]}
		}
		if s.mnemonic == "" {
			continue
		}
		switch s.mnemonic {
		case ".text":
			sec = secText
			continue
		case ".data":
			sec = secData
			continue
		case ".global", ".globl", ".section", ".type", ".size":
			continue
		case ".equ":
			if len(s.args) != 2 {
				return &AsmError{s.line, ".equ needs name, value"}
			}
			v, err := a.parseImm(s.args[1], s.line)
			if err != nil {
				return err
			}
			a.equs[s.args[0]] = v
			continue
		}
		size, err := a.stmtSize(s, sec)
		if err != nil {
			return err
		}
		// Alignment directives adjust the current offset directly.
		if s.mnemonic == ".align" || s.mnemonic == ".balign" {
			if len(s.args) != 1 {
				return &AsmError{s.line, s.mnemonic + " needs one alignment argument"}
			}
			al, err := a.parseImm(s.args[0], s.line)
			if err != nil {
				return err
			}
			n := uint64(al)
			if s.mnemonic == ".align" {
				n = uint64(1) << uint(al)
			}
			if n == 0 || n&(n-1) != 0 {
				return &AsmError{s.line, "alignment must be a power of two"}
			}
			pad := (n - offs[sec]%n) % n
			if pad > 0 {
				a.items = append(a.items, item{stmt: stmt{line: s.line, mnemonic: ".space", args: []string{strconv.FormatUint(pad, 10)}}, sec: sec, off: offs[sec], size: pad})
				offs[sec] += pad
			}
			// Re-pin any labels that pointed at the pre-pad offset.
			for lbl, p := range pending {
				if p.sec == sec && p.off == offs[sec]-pad {
					pending[lbl] = struct {
						sec section
						off uint64
					}{sec, offs[sec]}
				}
			}
			continue
		}
		a.items = append(a.items, item{stmt: s, sec: sec, off: offs[sec], size: size})
		offs[sec] += size
	}
	a.textSz = offs[secText]
	a.dataSz = offs[secData]
	a.dataBase = alignUp(a.opts.TextBase+a.textSz, a.opts.DataAlign)
	for lbl, p := range pending {
		if p.sec == secText {
			a.symbols[lbl] = a.opts.TextBase + p.off
		} else {
			a.symbols[lbl] = a.dataBase + p.off
		}
	}
	return nil
}

func alignUp(v, n uint64) uint64 { return (v + n - 1) &^ (n - 1) }

// stmtSize returns the byte size a statement occupies.
func (a *assembler) stmtSize(s stmt, sec section) (uint64, error) {
	if strings.HasPrefix(s.mnemonic, ".") {
		switch s.mnemonic {
		case ".byte":
			return uint64(len(s.args)), nil
		case ".half":
			return uint64(2 * len(s.args)), nil
		case ".word":
			return uint64(4 * len(s.args)), nil
		case ".dword", ".quad":
			return uint64(8 * len(s.args)), nil
		case ".space", ".zero":
			if len(s.args) != 1 {
				return 0, &AsmError{s.line, s.mnemonic + " needs one size argument"}
			}
			n, err := a.parseImm(s.args[0], s.line)
			if err != nil {
				return 0, err
			}
			if n < 0 {
				return 0, &AsmError{s.line, ".space size negative"}
			}
			return uint64(n), nil
		case ".asciz", ".string":
			if len(s.args) != 1 {
				return 0, &AsmError{s.line, s.mnemonic + " needs one string argument"}
			}
			str, err := parseString(s.args[0], s.line)
			if err != nil {
				return 0, err
			}
			return uint64(len(str) + 1), nil
		case ".ascii":
			if len(s.args) != 1 {
				return 0, &AsmError{s.line, ".ascii needs one string argument"}
			}
			str, err := parseString(s.args[0], s.line)
			if err != nil {
				return 0, err
			}
			return uint64(len(str)), nil
		case ".align", ".balign":
			return 0, nil // handled by caller
		}
		return 0, &AsmError{s.line, fmt.Sprintf("unknown directive %s", s.mnemonic)}
	}
	if sec != secText {
		return 0, &AsmError{s.line, "instruction outside .text"}
	}
	n, err := a.expandCount(s)
	if err != nil {
		return 0, err
	}
	return 4 * uint64(n), nil
}

// expandCount returns how many machine instructions a mnemonic expands to.
func (a *assembler) expandCount(s stmt) (int, error) {
	switch s.mnemonic {
	case "li":
		if len(s.args) != 2 {
			return 0, &AsmError{s.line, "li needs rd, imm"}
		}
		v, err := a.parseImm(s.args[1], s.line)
		if err != nil {
			return 0, &AsmError{s.line, "li requires a constant immediate"}
		}
		return len(liSeq(0, v)), nil
	case "la":
		return 2, nil
	default:
		return 1, nil
	}
}

// emit is pass 2: encode every statement.
func (a *assembler) emit() (*Program, error) {
	p := &Program{
		TextBase: a.opts.TextBase,
		DataBase: a.dataBase,
		Text:     make([]uint32, a.textSz/4),
		Data:     make([]byte, a.dataSz),
		Symbols:  a.symbols,
	}
	for _, it := range a.items {
		if it.sec == secData || strings.HasPrefix(it.mnemonic, ".") {
			if err := a.emitData(p, it); err != nil {
				return nil, err
			}
			continue
		}
		pc := a.opts.TextBase + it.off
		insts, err := a.expand(it.stmt, pc)
		if err != nil {
			return nil, err
		}
		if uint64(4*len(insts)) != it.size {
			return nil, &AsmError{it.line, "internal: pass1/pass2 size mismatch"}
		}
		for i, in := range insts {
			w, err := Encode(in)
			if err != nil {
				return nil, &AsmError{it.line, err.Error()}
			}
			p.Text[(it.off/4)+uint64(i)] = w
		}
	}
	p.Entry = p.TextBase
	if e, ok := a.symbols["main"]; ok {
		p.Entry = e
	}
	if e, ok := a.symbols["_start"]; ok {
		p.Entry = e
	}
	return p, nil
}

func (a *assembler) emitData(p *Program, it item) error {
	if it.sec == secText && !strings.HasPrefix(it.mnemonic, ".") {
		return &AsmError{it.line, "internal: data emit of instruction"}
	}
	var buf []byte
	if it.sec == secText {
		// directives in .text: only .space padding is supported
		if it.mnemonic != ".space" && it.mnemonic != ".zero" {
			return &AsmError{it.line, fmt.Sprintf("%s not supported in .text", it.mnemonic)}
		}
		// padding in text becomes nop words (size must be multiple of 4)
		if it.size%4 != 0 {
			return &AsmError{it.line, "text padding must be a multiple of 4"}
		}
		nop := MustEncode(Inst{Op: ADDI})
		for i := uint64(0); i < it.size/4; i++ {
			p.Text[it.off/4+i] = nop
		}
		return nil
	}
	writeLE := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	switch it.mnemonic {
	case ".byte", ".half", ".word", ".dword", ".quad":
		n := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".dword": 8, ".quad": 8}[it.mnemonic]
		for _, arg := range it.args {
			v, err := a.resolveValue(arg, it.line)
			if err != nil {
				return err
			}
			writeLE(uint64(v), n)
		}
	case ".space", ".zero":
		buf = make([]byte, it.size)
	case ".asciz", ".string":
		str, err := parseString(it.args[0], it.line)
		if err != nil {
			return err
		}
		buf = append([]byte(str), 0)
	case ".ascii":
		str, err := parseString(it.args[0], it.line)
		if err != nil {
			return err
		}
		buf = []byte(str)
	default:
		return &AsmError{it.line, fmt.Sprintf("unknown data directive %s", it.mnemonic)}
	}
	copy(p.Data[it.off:], buf)
	return nil
}

func parseString(arg string, line int) (string, error) {
	if len(arg) < 2 || arg[0] != '"' || arg[len(arg)-1] != '"' {
		return "", &AsmError{line, "expected quoted string"}
	}
	s, err := strconv.Unquote(arg)
	if err != nil {
		return "", &AsmError{line, "bad string literal"}
	}
	return s, nil
}

// parseImm parses an integer literal or .equ constant.
func (a *assembler) parseImm(s string, line int) (int64, error) {
	s = strings.TrimSpace(s)
	if v, ok := a.equs[s]; ok {
		return v, nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasPrefix(s, "0b"):
		v, err = strconv.ParseUint(s[2:], 2, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, &AsmError{line, fmt.Sprintf("bad immediate %q", s)}
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// resolveValue resolves an immediate, %hi/%lo expression, or symbol address.
func (a *assembler) resolveValue(s string, line int) (int64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "%hi(") && strings.HasSuffix(s, ")") {
		v, err := a.resolveValue(s[4:len(s)-1], line)
		if err != nil {
			return 0, err
		}
		return hi20Page(v), nil
	}
	if strings.HasPrefix(s, "%lo(") && strings.HasSuffix(s, ")") {
		v, err := a.resolveValue(s[4:len(s)-1], line)
		if err != nil {
			return 0, err
		}
		return lo12(v), nil
	}
	if addr, ok := a.symbols[s]; ok {
		return int64(addr), nil
	}
	// symbol+offset
	if i := strings.LastIndexAny(s, "+-"); i > 0 {
		if addr, ok := a.symbols[strings.TrimSpace(s[:i])]; ok {
			off, err := a.parseImm(strings.TrimSpace(s[i+1:]), line)
			if err != nil {
				return 0, err
			}
			if s[i] == '-' {
				off = -off
			}
			return int64(addr) + off, nil
		}
	}
	return a.parseImm(s, line)
}

// hi20 returns the LUI immediate (already shifted and sign-extended, as
// stored in Inst.Imm) for absolute address v.
func hi20(v int64) int64 {
	h := (v + 0x800) >> 12
	return int64(int32(h << 12))
}

// hi20Page returns the 20-bit page value of v as written in assembly
// (lui/auipc operands and %hi(...) take the unshifted 20-bit form).
func hi20Page(v int64) int64 {
	return int64(uint32(hi20(v))>>12) & 0xFFFFF
}

// lo12 returns the matching low 12 bits, sign-extended.
func lo12(v int64) int64 {
	return ((v & 0xFFF) ^ 0x800) - 0x800
}

// liSeq builds the canonical materialisation sequence for li rd, imm.
func liSeq(rd uint8, imm int64) []Inst {
	if imm == int64(int32(imm)) {
		lo := lo12(imm)
		hiv := imm - lo
		if hiv == int64(int32(hiv)) {
			var out []Inst
			if hiv != 0 {
				out = append(out, Inst{Op: LUI, Rd: rd, Imm: int64(int32(hiv))})
				if lo != 0 {
					out = append(out, Inst{Op: ADDIW, Rd: rd, Rs1: rd, Imm: lo})
				}
				return out
			}
			return []Inst{{Op: ADDI, Rd: rd, Imm: lo}}
		}
	}
	lo := lo12(imm)
	rest := (imm - lo) >> 12
	out := liSeq(rd, rest)
	out = append(out, Inst{Op: SLLI, Rd: rd, Rs1: rd, Imm: 12})
	if lo != 0 {
		out = append(out, Inst{Op: ADDI, Rd: rd, Rs1: rd, Imm: lo})
	}
	return out
}
