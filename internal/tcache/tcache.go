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
// A Key carries the guest image's digest (riscv.Program.Digest, which a
// program computes once and memoises — a program is immutable once
// assembled), the mode, the caller's configuration fingerprint and the
// input salt. The in-memory layer finds a key's store by a fixed-size
// digest of those four parts, so a warm run keys its store without
// allocating; the readable strings (the document path and the unhashed
// key a document stores) are built only when the disk layer reads or
// writes a document.
//
// The cache has two layers: a process-wide in-memory store shared by
// every machine with the same key (an experiment sweep translates each
// kernel once per mode, not once per cell), and an optional on-disk
// layer so separate processes share warm translations. A disk document
// (schema ghostbusters/tcache/v3) is binary: each region's metadata and
// its block in the VLIW encoding (vliw.AppendBlock: the block's dense
// in-memory form, no padding), closed by a CRC-32C. Disk writes are
// atomic (tmp + rename), happen once per run key when a clean run
// published new regions, and remove the other-version documents beside
// the new one. A corrupt or truncated document, or a file that is no
// document at all, degrades to a cold run and an Err(); a document of
// another schema version or key is skipped quietly. None of them can
// cause a wrong hit or a panic.
package tcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ghostbusters/internal/vliw"
)

// Schema identifies the on-disk document format. Bump it when Region or
// the vliw.Block serialization changes incompatibly; loading rejects
// other schemas and treats the key as cold.
const Schema = "ghostbusters/tcache/v3"

// Region is one cached translation: the compiled block (with guest PCs
// preserved — self-modifying-code invalidation and fault attribution
// need them) plus the translation-time metadata the DBT engine records
// alongside it. A region is immutable once recorded; machines share the
// same *vliw.Block pointer and rebuild only the per-block dispatch
// table, which is atomically published (see vliw.Block).
type Region struct {
	PC    uint64
	Trace bool

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
// most once per shape per run (first-pass block, then trace upgrade).
type regionKey struct {
	pc    uint64
	trace bool
}

// Key is the material of one run's cache key: the guest image, the
// mitigation mode, the machine configuration fingerprint, and a salt
// covering run inputs that live outside the image (the harness hashes
// the arrays it writes into guest memory after load — they steer
// profiling and therefore trace shapes).
//
// The in-memory layer finds a key's store by a fixed-size digest of this
// material (id), so a warm run keys its store without allocating. The
// readable form the disk layer needs (names) is built only when a
// document is read or written.
type Key struct {
	Image [sha256.Size]byte // riscv.Program.Digest of the guest image
	Mode  string            // mitigation mode name
	// Fingerprint renders every configuration field that can influence
	// translation output or the run's translation schedule. The caller
	// owns the bytes and keeps them unchanged while the Run opened with
	// the key is in use: Publish may write them into a document.
	Fingerprint []byte
	Salt        string
}

// id is the digest the in-memory layer files a key's store under. Each
// variable-length part is length-prefixed, so no two keys share an id
// short of a SHA-256 collision.
func (k Key) id() [sha256.Size]byte {
	h := sha256.New()
	h.Write(k.Image[:])
	var w [8]byte
	for _, part := range [...][]byte{[]byte(k.Mode), k.Fingerprint, []byte(k.Salt)} {
		binary.LittleEndian.PutUint64(w[:], uint64(len(part)))
		h.Write(w[:])
		h.Write(part)
	}
	var id [sha256.Size]byte
	h.Sum(id[:0])
	return id
}

// names is the readable form of a key the disk layer uses. The path
// elements are hashes (image, fingerprint+salt) plus the sanitized mode
// name; full keeps the unhashed material, so a loaded document can be
// verified against hash collisions and stale fingerprint rules.
type names struct {
	image  string // hash of the guest image
	mode   string // mitigation mode, sanitized for use as a path element
	config string // hash of fingerprint + input salt
	full   string // unhashed composite, stored in the document for verification
}

func (k Key) names() names {
	image := hex.EncodeToString(k.Image[:])[:24]
	fp := string(k.Fingerprint)
	ch := sha256.Sum256([]byte(fp + "\x00" + k.Salt))
	return names{
		image:  image,
		mode:   sanitize(k.Mode),
		config: hex.EncodeToString(ch[:])[:24],
		full:   image + "|" + k.Mode + "|" + fp + "|" + k.Salt,
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
//	"ghostbusters/tcache/v3\n"       the schema line (Schema)
//	uvarint len(key), key            Key.Full
//	uvarint region count
//	per region, sorted by (PC, Trace):
//	  uvarint PC, flags (1 Trace, 4 Pattern), Lo, Hi,
//	          SpecLoads, RiskyLoads, GuardEdges
//	  block   vliw.AppendBlock
//	uint32  CRC-32C of everything before it, little-endian
//
// Any other flag bit, bit 2 included, makes the document defective.
const (
	flagTrace   = 1
	flagPattern = 4
)

// schemaFamily prefixes every schema this package has written: a first
// line that carries it but names another version is a document from an
// older or newer build, not corruption.
const schemaFamily = "ghostbusters/tcache/"

// minRegionBytes is the smallest encoded region: seven one-byte uvarints
// and an empty block, which is the block header alone. It bounds a
// document's region count.
const minRegionBytes = 7 + 5*8

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
	schema, ok := schemaLine(data)
	if !ok {
		return nil, errors.New("not a translation-cache document")
	}
	if schema != Schema {
		if strings.HasPrefix(schema, schemaFamily) {
			return nil, errForeign
		}
		return nil, fmt.Errorf("not a translation-cache document (first line %q)", schema)
	}
	nl := len(schema)
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
		if bad := flags &^ (flagTrace | flagPattern); bad != 0 {
			return nil, fmt.Errorf("region %#x: unknown flag bits %#x", rg.PC, bad)
		}
		rg.Trace, rg.Pattern = flags&flagTrace != 0, flags&flagPattern != 0
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

// schemaLine returns the first line of a document that starts head, or
// false when the head holds no line short enough to be a schema.
func schemaLine(head []byte) (string, bool) {
	nl := bytes.IndexByte(head[:min(len(head), schemaLineMax)], '\n')
	if nl < 0 {
		return "", false
	}
	return string(head[:nl]), true
}

// schemaLineMax bounds where a document's first newline may fall.
const schemaLineMax = len(Schema) + 8

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
	stores map[[sha256.Size]byte]*store // Key.id → loaded (or fresh) store

	errMu sync.Mutex
	err   error // first persistence failure (best-effort layer)

	hits, misses, persisted atomic.Uint64
}

// New returns a cache rooted at dir; dir == "" keeps the cache
// in-memory only (process-wide sharing without persistence).
func New(dir string) *Cache {
	return &Cache{dir: dir, stores: make(map[[sha256.Size]byte]*store)}
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
	return c.hits.Load(), c.misses.Load(), int(c.persisted.Load())
}

// path returns the document path for a key: <dir>/<image>/<mode>/<config>.bin.
// Documents of earlier schemas (v1 wrote <config>.json) are never read.
func (c *Cache) path(n names) string {
	return filepath.Join(c.dir, n.image, n.mode, n.config+".bin")
}

// Open starts r as the per-run view for a key, loading the key's disk
// document into the shared store on first use. Once the key's store
// exists, Open allocates nothing: a caller can keep r in memory it
// reuses from run to run.
func (c *Cache) Open(r *Run, k Key) {
	id := k.id()
	c.mu.Lock()
	st := c.stores[id]
	if st == nil {
		st = &store{regions: make(map[regionKey]*Region)}
		c.stores[id] = st
		if c.dir != "" {
			c.load(k.names(), st)
		}
	}
	c.mu.Unlock()
	*r = Run{c: c, key: k, st: st}
}

// load populates a fresh store from the key's disk document. Failures
// (missing file, a corrupt or truncated document, a schema or key
// mismatch) leave the store empty: the run is simply cold. Everything
// but a missing file or a foreign document also lands in Err().
func (c *Cache) load(n names, st *store) {
	path := c.path(n)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.setErr(fmt.Errorf("tcache: reading %s: %w", path, err))
		}
		return
	}
	regions, err := decodeDocument(data, n.full)
	if err != nil {
		if !errors.Is(err, errForeign) {
			c.setErr(fmt.Errorf("tcache: parsing %s: %w", path, err))
		}
		return
	}
	for i := range regions {
		rg := &regions[i]
		st.regions[regionKey{rg.PC, rg.Trace}] = rg
	}
}

// persist writes the key's full region set as an atomic document.
func (c *Cache) persist(n names, regions []*Region) {
	sort.Slice(regions, func(a, b int) bool {
		ra, rb := regions[a], regions[b]
		if ra.PC != rb.PC {
			return ra.PC < rb.PC
		}
		return !ra.Trace && rb.Trace
	})
	path := c.path(n)
	data, err := encodeDocument(n.full, regions)
	if err != nil {
		c.setErr(fmt.Errorf("tcache: encoding %s: %w", path, err))
		return
	}
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
		c.setErr(fmt.Errorf("tcache: writing %s: %w", path, errors.Join(werr, cerr)))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.setErr(fmt.Errorf("tcache: %w", err))
		return
	}
	c.persisted.Add(1)
	c.prune(filepath.Dir(path))
}

// removeFile is os.Remove; tests replace it to make a removal fail.
var removeFile = os.Remove

// prune removes the .bin files in dir whose first line names another
// schema of the family: this build never reads them, and their keys are
// rewritten as their runs publish. Current-schema documents of other
// configs, files that are no document and v1 .json leftovers stay.
func (c *Cache) prune(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		c.setErr(fmt.Errorf("tcache: %w", err))
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if !e.Type().IsRegular() || filepath.Ext(path) != ".bin" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		var head [schemaLineMax]byte
		n, _ := io.ReadFull(f, head[:])
		f.Close()
		if schema, ok := schemaLine(head[:n]); !ok || schema == Schema || !strings.HasPrefix(schema, schemaFamily) {
			continue
		}
		// A document another process removed first is no error.
		if err := removeFile(path); err != nil && !os.IsNotExist(err) {
			c.setErr(fmt.Errorf("tcache: %w", err))
		}
	}
}

// Run is one machine's view of the cache: lookups against the shared
// store during the run, fresh compilations recorded locally, and a
// single Publish on clean guest exit that merges them into the store
// and schedules the disk write. Cache.Open starts one. A Run is used by one machine (one goroutine); the
// shared store behind it is safe for many.
type Run struct {
	c     *Cache
	key   Key
	st    *store
	fresh []*Region
}

// Lookup returns the cached region for a translation request, or nil.
func (r *Run) Lookup(pc uint64, trace bool) *Region {
	r.st.mu.RLock()
	rg := r.st.regions[regionKey{pc, trace}]
	r.st.mu.RUnlock()
	if rg != nil {
		r.c.hits.Add(1)
	} else {
		r.c.misses.Add(1)
	}
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
		k := regionKey{rg.PC, rg.Trace}
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
		r.c.persist(r.key.names(), snapshot)
	}
}
