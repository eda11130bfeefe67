// Package tcache implements the persistent translation cache of the
// execution backend: translated VLIW regions, serialized with their
// guest-PC metadata intact, keyed by everything that determines a run's
// translation output — the guest image, the run inputs, the mitigation
// mode and the full machine configuration.
//
// Correctness rests on the simulator's determinism: a run is a pure
// function of (image, inputs, config), and translation happens at fixed
// instants of that run (the profiling thresholds). Two runs with the
// same cache key therefore request exactly the same translations in the
// same order, so a cached region can be installed at precisely the
// instant a fresh compilation would have been — same guest-visible
// cycle charge, same statistics, bit-identical code. The dbt package's
// differential tests pin this down; anything that breaks the premise
// (fault injection, auditing, encode-verification, self-modifying code)
// bypasses or abandons the cache instead of risking a wrong hit.
//
// The cache has two layers: a process-wide in-memory store shared by
// every machine with the same key (an experiment sweep translates each
// kernel once per mode, not once per cell), and an optional on-disk
// layer so separate processes share warm translations. A disk document
// (schema ghostbusters/tcache/v2) is binary: each region's metadata and
// its block in the VLIW encoding (vliw.AppendBlock: the EncodeBlock
// words plus a GuestPC side table), closed by a CRC-32C. Disk writes
// are atomic (tmp + rename) and happen once per run key when a clean
// run published new regions. A corrupt or truncated document, or a file
// that is no document at all, degrades to a cold run and an Err(); a
// document of another schema version or key is skipped quietly. None of
// them can cause a wrong hit or a panic.
package tcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// Schema identifies the on-disk document format. Bump it when Region or
// the vliw.Block serialization changes incompatibly; loading rejects
// other schemas and treats the key as cold.
const Schema = "ghostbusters/tcache/v2"

// Region is one cached translation: the compiled block (with guest PCs
// preserved — self-modifying-code invalidation and fault attribution
// need them) plus the translation-time metadata the DBT engine records
// alongside it. A region is immutable once recorded; machines share the
// same *vliw.Block pointer and rebuild only the per-block dispatch
// table, which is atomically published (see vliw.Block).
type Region struct {
	PC        uint64
	Trace     bool
	NoMemSpec bool

	// Lo/Hi is the guest text extent [Lo, Hi) the region was translated
	// from, for store-hook invalidation.
	Lo, Hi uint64

	// Static mitigation report of the compiled code.
	SpecLoads  int
	RiskyLoads int
	GuardEdges int
	Pattern    bool

	Block *vliw.Block
}

// regionKey identifies a region within one run: a PC is compiled at
// most once per (trace, noMemSpec) shape per run (first-pass block,
// trace upgrade, deopt retranslation are distinct shapes).
type regionKey struct {
	pc        uint64
	trace     bool
	noMemSpec bool
}

// Key addresses one deterministic run shape in the cache. The path
// components are hashes (image, config+salt) plus the sanitized mode
// name; Full keeps the unhashed material so a loaded document can be
// verified against hash collisions and stale fingerprint rules.
type Key struct {
	Image  string // hash of the guest image
	Mode   string // mitigation mode, sanitized for use as a path element
	Config string // hash of config fingerprint + input salt
	Full   string // unhashed composite, stored in the document for verification
}

// RunKey composes the cache key for one run: the guest image (text,
// data, entry point and bases), the mitigation mode, the machine
// configuration fingerprint, and a salt covering run inputs that live
// outside the image (the harness hashes the arrays it writes into guest
// memory after load — they steer profiling and therefore trace shapes).
func RunKey(p *riscv.Program, mode, fingerprint, salt string) Key {
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
	image := hex.EncodeToString(h.Sum(nil))[:24]

	ch := sha256.Sum256([]byte(fingerprint + "\x00" + salt))
	config := hex.EncodeToString(ch[:])[:24]

	return Key{
		Image:  image,
		Mode:   sanitize(mode),
		Config: config,
		Full:   fmt.Sprintf("%s|%s|%s|%s", image, mode, fingerprint, salt),
	}
}

// sanitize maps an arbitrary mode name onto a safe path element.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '+')
		}
	}
	if len(out) == 0 {
		return "mode"
	}
	return string(out)
}

// The on-disk document of one key's region set, in order:
//
//	"ghostbusters/tcache/v2\n"       the schema line (Schema)
//	uvarint len(key), key            Key.Full
//	uvarint region count
//	per region, sorted by (PC, Trace, NoMemSpec):
//	  uvarint PC, flags (1 Trace, 2 NoMemSpec, 4 Pattern), Lo, Hi,
//	          SpecLoads, RiskyLoads, GuardEdges
//	  block   vliw.AppendBlock
//	uint32  CRC-32C of everything before it, little-endian
const (
	flagTrace = 1 << iota
	flagNoMemSpec
	flagPattern
)

// schemaFamily prefixes every schema this package has written: a first
// line that carries it but names another version is a document from an
// older or newer build, not corruption.
const schemaFamily = "ghostbusters/tcache/"

// minRegionBytes is the smallest encoded region: seven one-byte uvarints
// and a six-word block image. It bounds a document's region count.
const minRegionBytes = 7 + 6*8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeDocument renders a key's regions, already sorted, as a document.
func encodeDocument(key string, regions []*Region) ([]byte, error) {
	data := binary.AppendUvarint([]byte(Schema+"\n"), uint64(len(key)))
	data = append(data, key...)
	data = binary.AppendUvarint(data, uint64(len(regions)))
	for _, rg := range regions {
		var flags uint64
		if rg.Trace {
			flags |= flagTrace
		}
		if rg.NoMemSpec {
			flags |= flagNoMemSpec
		}
		if rg.Pattern {
			flags |= flagPattern
		}
		for _, v := range [...]uint64{rg.PC, flags, rg.Lo, rg.Hi, uint64(rg.SpecLoads), uint64(rg.RiskyLoads), uint64(rg.GuardEdges)} {
			data = binary.AppendUvarint(data, v)
		}
		var err error
		if data, err = vliw.AppendBlock(data, rg.Block); err != nil {
			return nil, fmt.Errorf("region %#x: %w", rg.PC, err)
		}
	}
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli)), nil
}

// errForeign marks a well-formed document that is not for this build
// and key: another schema version, or a key that hashed to the same
// path. Loading skips it without an error.
var errForeign = errors.New("foreign document")

// decodeDocument parses a document written for key. Any defect —
// truncation, a bad checksum, a malformed region — is an error, and no
// region of a defective document is returned.
func decodeDocument(data []byte, key string) ([]Region, error) {
	nl := bytes.IndexByte(data[:min(len(data), len(Schema)+8)], '\n')
	if nl < 0 {
		return nil, errors.New("not a translation-cache document")
	}
	if schema := string(data[:nl]); schema != Schema {
		if strings.HasPrefix(schema, schemaFamily) {
			return nil, errForeign
		}
		return nil, fmt.Errorf("not a translation-cache document (first line %q)", schema)
	}
	if len(data) < nl+1+4 {
		return nil, errors.New("truncated document")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, errors.New("checksum mismatch")
	}
	r := reader{b: body[nl+1:]}
	if string(r.bytes(r.uvarint())) != key {
		if r.err != nil {
			return nil, r.err
		}
		return nil, errForeign
	}
	n := r.uvarint()
	if n > uint64(len(r.b))/minRegionBytes {
		return nil, fmt.Errorf("region count %d exceeds the document", n)
	}
	regions := make([]Region, n)
	for i := range regions {
		rg := &regions[i]
		rg.PC = r.uvarint()
		flags := r.uvarint()
		rg.Trace, rg.NoMemSpec, rg.Pattern = flags&flagTrace != 0, flags&flagNoMemSpec != 0, flags&flagPattern != 0
		rg.Lo, rg.Hi = r.uvarint(), r.uvarint()
		rg.SpecLoads, rg.RiskyLoads, rg.GuardEdges = int(r.uvarint()), int(r.uvarint()), int(r.uvarint())
		if r.err != nil {
			return nil, r.err
		}
		blk, k, err := vliw.ConsumeBlock(r.b)
		if err != nil {
			return nil, fmt.Errorf("region %#x: %w", rg.PC, err)
		}
		rg.Block, r.b = blk, r.b[k:]
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d bytes after the last region", len(r.b))
	}
	return regions, nil
}

// reader consumes a document body; the first short read sticks in err
// and turns every later read into a zero.
type reader struct {
	b   []byte
	err error
}

var errShort = errors.New("truncated document")

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errShort
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) bytes(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errShort
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// store is the in-memory region set of one key.
type store struct {
	mu      sync.RWMutex
	regions map[regionKey]*Region
}

// Cache is the shared translation-cache handle: one per process (or per
// test), wired into dbt.Config.TransCache and safe for concurrent use
// by the experiment runner's worker pool.
type Cache struct {
	dir string // "" = in-memory only

	mu     sync.Mutex
	stores map[string]*store // key id → loaded (or fresh) store

	errMu sync.Mutex
	err   error // first persistence failure (best-effort layer)

	statMu    sync.Mutex
	hits      uint64
	misses    uint64
	persisted int
}

// New returns a cache rooted at dir; dir == "" keeps the cache
// in-memory only (process-wide sharing without persistence).
func New(dir string) *Cache {
	return &Cache{dir: dir, stores: make(map[string]*store)}
}

// DefaultDir is the conventional on-disk root: the user cache
// directory's "ghostbusters" subtree.
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("tcache: no user cache directory: %w", err)
	}
	return filepath.Join(base, "ghostbusters"), nil
}

// Err returns the first persistence error the cache swallowed (loads
// and stores are best-effort: a broken disk layer degrades to cold
// runs). Tools surface it as a warning after their run.
func (c *Cache) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

func (c *Cache) setErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Stats reports cache effectiveness: region lookups served and missed,
// and how many documents were written to disk.
func (c *Cache) Stats() (hits, misses uint64, persisted int) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.hits, c.misses, c.persisted
}

// path returns the document path for a key: <dir>/<image>/<mode>/<config>.bin.
// Documents of earlier schemas (v1 wrote <config>.json) are never read.
func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.Image, k.Mode, k.Config+".bin")
}

// Run opens the per-run view for a key, loading the key's disk document
// into the shared store on first use.
func (c *Cache) Run(k Key) *Run {
	id := k.Image + "/" + k.Mode + "/" + k.Config
	c.mu.Lock()
	st := c.stores[id]
	if st == nil {
		st = &store{regions: make(map[regionKey]*Region)}
		c.stores[id] = st
		if c.dir != "" {
			c.load(k, st)
		}
	}
	c.mu.Unlock()
	return &Run{c: c, key: k, st: st}
}

// load populates a fresh store from the key's disk document. Failures
// (missing file, a corrupt or truncated document, a schema or key
// mismatch) leave the store empty: the run is simply cold. Everything
// but a missing file or a foreign document also lands in Err().
func (c *Cache) load(k Key, st *store) {
	path := c.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.setErr(fmt.Errorf("tcache: reading %s: %w", path, err))
		}
		return
	}
	regions, err := decodeDocument(data, k.Full)
	if err != nil {
		if !errors.Is(err, errForeign) {
			c.setErr(fmt.Errorf("tcache: parsing %s: %w", path, err))
		}
		return
	}
	for i := range regions {
		rg := &regions[i]
		st.regions[regionKey{rg.PC, rg.Trace, rg.NoMemSpec}] = rg
	}
}

// persist writes the key's full region set as an atomic document.
func (c *Cache) persist(k Key, regions []*Region) {
	sort.Slice(regions, func(a, b int) bool {
		ra, rb := regions[a], regions[b]
		if ra.PC != rb.PC {
			return ra.PC < rb.PC
		}
		if ra.Trace != rb.Trace {
			return rb.Trace
		}
		return rb.NoMemSpec
	})
	data, err := encodeDocument(k.Full, regions)
	if err != nil {
		c.setErr(fmt.Errorf("tcache: encoding %s: %w", c.path(k), err))
		return
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.setErr(fmt.Errorf("tcache: %w", err))
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tcache-*")
	if err != nil {
		c.setErr(fmt.Errorf("tcache: %w", err))
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.setErr(fmt.Errorf("tcache: writing %s: %w", path, err2(werr, cerr)))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.setErr(fmt.Errorf("tcache: %w", err))
		return
	}
	c.statMu.Lock()
	c.persisted++
	c.statMu.Unlock()
}

func err2(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Run is one machine's view of the cache: lookups against the shared
// store during the run, fresh compilations recorded locally, and a
// single Publish on clean guest exit that merges them into the store
// and schedules the disk write. A Run is used by one machine (one
// goroutine); the shared store behind it is safe for many.
type Run struct {
	c     *Cache
	key   Key
	st    *store
	fresh []*Region
}

// Lookup returns the cached region for a translation request, or nil.
func (r *Run) Lookup(pc uint64, trace, noMemSpec bool) *Region {
	r.st.mu.RLock()
	rg := r.st.regions[regionKey{pc, trace, noMemSpec}]
	r.st.mu.RUnlock()
	r.c.statMu.Lock()
	if rg != nil {
		r.c.hits++
	} else {
		r.c.misses++
	}
	r.c.statMu.Unlock()
	return rg
}

// Record notes a freshly compiled region for publication. The region
// (including its block) must be immutable from here on.
func (r *Run) Record(rg *Region) {
	r.fresh = append(r.fresh, rg)
}

// Publish merges the run's fresh regions into the shared store and,
// when anything new landed and a disk layer is configured, rewrites the
// key's document. Call it only after a clean guest exit: a run that
// faulted or was interrupted may have recorded regions whose profiling
// instants a complete run would never reach.
func (r *Run) Publish() {
	if r == nil || len(r.fresh) == 0 {
		return
	}
	st := r.st
	st.mu.Lock()
	added := false
	for _, rg := range r.fresh {
		k := regionKey{rg.PC, rg.Trace, rg.NoMemSpec}
		if _, ok := st.regions[k]; !ok {
			st.regions[k] = rg
			added = true
		}
	}
	var snapshot []*Region
	if added && r.c.dir != "" {
		snapshot = make([]*Region, 0, len(st.regions))
		for _, rg := range st.regions {
			snapshot = append(snapshot, rg)
		}
	}
	st.mu.Unlock()
	r.fresh = nil
	if snapshot != nil {
		r.c.persist(r.key, snapshot)
	}
}
