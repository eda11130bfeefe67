package tcache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// testProg is a tiny but fully-populated guest image: every field that
// feeds the image hash is non-zero.
func testProg() *riscv.Program {
	return &riscv.Program{
		Entry:    0x1000,
		TextBase: 0x1000,
		Text:     []uint32{0x00100513, 0x00000073},
		DataBase: 0x2000,
		Data:     []byte{1, 2, 3, 4},
	}
}

// testRegion builds a region with a non-trivial block so the disk
// round trip exercises nested serialization (bundles, recoveries,
// guest PCs).
func testRegion(pc uint64) *Region {
	return &Region{
		PC: pc, Trace: true,
		Lo: pc, Hi: pc + 8,
		SpecLoads: 2, RiskyLoads: 1, GuardEdges: 3, Pattern: true,
		Block: &vliw.Block{
			EntryPC: pc,
			Bundles: []vliw.Bundle{
				{{Kind: vliw.KAluRI, Op: riscv.ADDI, Dst: 10, Ra: 10, Imm: 1, Rec: -1, GuestPC: pc}},
				{{Kind: vliw.KJump, Imm: int64(pc + 8), Rec: -1, GuestPC: pc + 4}},
			},
			Recoveries: [][]vliw.Syllable{
				{{Kind: vliw.KJump, Imm: int64(pc), Rec: -1, GuestPC: pc}},
			},
			FallPC:     pc + 8,
			GuestInsts: 2,
		},
	}
}

// testKey builds the key of a run of p.
func testKey(p *riscv.Program, mode, fingerprint, salt string) Key {
	return Key{Image: p.Digest(), Mode: mode, Fingerprint: []byte(fingerprint), Salt: salt}
}

// open opens a fresh Run on k.
func open(c *Cache, k Key) *Run {
	r := new(Run)
	c.Open(r, k)
	return r
}

// The key must separate every input that can change a deterministic
// run's translation schedule: image contents, entry point, mode,
// configuration fingerprint and the out-of-image input salt.
func TestRunKeySensitivity(t *testing.T) {
	base := testKey(testProg(), "unsafe", "cfg", "salt")

	again := testKey(testProg(), "unsafe", "cfg", "salt")
	if again.id() != base.id() || again.names() != base.names() {
		t.Fatalf("identical inputs produced different keys:\n%+v\n%+v", base.names(), again.names())
	}

	vary := map[string]Key{}
	p := testProg()
	p.Text[0] ^= 1
	vary["text word"] = testKey(p, "unsafe", "cfg", "salt")
	p = testProg()
	p.Data[0] ^= 1
	vary["data byte"] = testKey(p, "unsafe", "cfg", "salt")
	p = testProg()
	p.Entry += 4
	vary["entry"] = testKey(p, "unsafe", "cfg", "salt")
	vary["mode"] = testKey(testProg(), "fence", "cfg", "salt")
	vary["fingerprint"] = testKey(testProg(), "unsafe", "cfg2", "salt")
	vary["salt"] = testKey(testProg(), "unsafe", "cfg", "salt2")
	// Moving a byte between two parts changes neither part's bytes in
	// the concatenation; the length prefixes must still tell them apart.
	vary["part boundary"] = testKey(testProg(), "unsafe", "cfgs", "alt")

	ids := map[[32]byte]string{base.id(): "base"}
	fulls := map[string]string{base.names().full: "base"}
	for what, k := range vary {
		if prev, dup := ids[k.id()]; dup {
			t.Errorf("%s and %s share a store id", what, prev)
		}
		ids[k.id()] = what
		full := k.names().full
		if prev, dup := fulls[full]; dup {
			t.Errorf("%s and %s collide on %q", what, prev, full)
		}
		fulls[full] = what
	}
	// Image-only changes must leave the config hash alone and vice
	// versa, so documents land in the right directory level.
	if vary["text word"].names().config != base.names().config {
		t.Error("image change perturbed the config hash")
	}
	if vary["fingerprint"].names().image != base.names().image {
		t.Error("fingerprint change perturbed the image hash")
	}
}

// A published run must come back bit-identical from a fresh Cache on
// the same directory — the cross-process warm-start path.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k := testKey(testProg(), "unsafe", "cfg", "")

	c1 := New(dir)
	r1 := open(c1, k)
	want := testRegion(0x1000)
	r1.Record(want)
	empty := &Region{PC: 0x1010, Lo: 0x1010, Hi: 0x1014, Block: &vliw.Block{EntryPC: 0x1010}}
	r1.Record(empty)
	r1.Publish()
	if err := c1.Err(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, _, persisted := c1.Stats(); persisted != 1 {
		t.Fatalf("persisted %d documents, want 1", persisted)
	}

	c2 := New(dir)
	r2 := open(c2, k)
	got := r2.Lookup(0x1000, true)
	if got == nil {
		t.Fatal("published region not found by a fresh cache")
	}
	// Neither block has built its dispatch table, so DeepEqual compares
	// content only — every syllable's GuestPC included.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("region did not round-trip:\nwant %+v\n%v\ngot  %+v\n%v", *want, want.Block, *got, got.Block)
	}
	if got := r2.Lookup(0x1010, false); !reflect.DeepEqual(got, empty) {
		t.Errorf("empty-block region did not round-trip: %+v", got)
	}
	if r2.Lookup(0x1000, false) != nil {
		t.Error("lookup ignores the trace bit: block-shaped probe returned the trace")
	}
	if r2.Lookup(0x9999, false) != nil {
		t.Error("lookup invented a region")
	}
	if err := c2.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
}

// cacheFiles returns every document under dir.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// reseal replaces a document's CRC-32C with the one its new body needs,
// so a test edit reaches the check behind the checksum.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// Corrupt, truncated or foreign documents must degrade to a cold run,
// never to a panic or to wrong code. Defects surface through Err();
// documents of another schema version or key are skipped quietly.
func TestLoadRejectsBadDocuments(t *testing.T) {
	k := testKey(testProg(), "unsafe", "cfg", "")
	publish := func(t *testing.T) (dir, doc string, data []byte) {
		dir = t.TempDir()
		c := New(dir)
		r := open(c, k)
		r.Record(testRegion(0x1000))
		r.Publish()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		files := cacheFiles(t, dir)
		if len(files) != 1 || !strings.HasSuffix(files[0], ".bin") {
			t.Fatalf("expected exactly one .bin document, found %v", files)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(Schema+"\n")) {
			t.Fatalf("document does not open with the schema line: %q", data[:min(len(data), 32)])
		}
		return dir, files[0], data
	}
	// load opens a fresh cache on dir and reports whether the published
	// region was served, and the cache's error.
	load := func(dir string) (served bool, err error) {
		c := New(dir)
		served = open(c, k).Lookup(0x1000, true) != nil
		return served, c.Err()
	}
	write := func(t *testing.T, path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix of the document, from empty to one byte
		// short, as a torn write could leave it.
		dir, doc, data := publish(t)
		for n := 0; n < len(data); n++ {
			write(t, doc, data[:n])
			served, err := load(dir)
			if served || err == nil {
				t.Fatalf("document cut to %d of %d bytes: served=%v err=%v", n, len(data), served, err)
			}
		}
	})
	t.Run("flipped bit", func(t *testing.T) {
		// Every single-bit error after the schema line, checksum
		// included, must fail the CRC.
		dir, doc, data := publish(t)
		for i := len(Schema) + 1; i < len(data); i++ {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(data)
				bad[i] ^= 1 << bit
				write(t, doc, bad)
				served, err := load(dir)
				if served || err == nil || !strings.Contains(err.Error(), "checksum") {
					t.Fatalf("byte %d bit %d flipped: served=%v err=%v", i, bit, served, err)
				}
			}
		}
	})
	t.Run("wrong schema", func(t *testing.T) {
		// Another version's document, correctly sealed: skipped, not an
		// error.
		dir, doc, data := publish(t)
		body := bytes.Replace(data[:len(data)-4], []byte(Schema), []byte("ghostbusters/tcache/v0"), 1)
		write(t, doc, reseal(body))
		if served, err := load(dir); served || err != nil {
			t.Errorf("served=%v err=%v, want a quiet cold run", served, err)
		}
	})
	t.Run("foreign key", func(t *testing.T) {
		// A document whose full (unhashed) key disagrees with the probe
		// — the defense against path-hash collisions and stale
		// fingerprint rules — must be ignored.
		dir, doc, data := publish(t)
		hdr := len(Schema) + 1
		keyLen, n := binary.Uvarint(data[hdr:])
		rest := data[hdr+n+int(keyLen) : len(data)-4]
		other := "someone|else|entirely|"
		body := binary.AppendUvarint([]byte(Schema+"\n"), uint64(len(other)))
		body = append(append(body, other...), rest...)
		write(t, doc, reseal(body))
		if served, err := load(dir); served || err != nil {
			t.Errorf("served=%v err=%v, want a quiet cold run", served, err)
		}
		// The cold run publishes over the foreign document, and the
		// next cache on the directory starts warm.
		c := New(dir)
		r := open(c, k)
		r.Record(testRegion(0x1000))
		r.Publish()
		if _, _, persisted := c.Stats(); persisted != 1 || c.Err() != nil {
			t.Errorf("republishing wrote %d documents, err %v; want 1 and none", persisted, c.Err())
		}
		if served, err := load(dir); !served || err != nil {
			t.Errorf("after republishing: served=%v err=%v, want a warm run", served, err)
		}
	})
	t.Run("leftover v1 json", func(t *testing.T) {
		// A schema v1 document sits at <config>.json beside the v2 one;
		// nothing reads it, with or without the .bin present.
		dir, doc, _ := publish(t)
		v1 := strings.TrimSuffix(doc, ".bin") + ".json"
		write(t, v1, []byte(`{"schema":"ghostbusters/tcache/v1","key":"`+k.names().full+`","regions":[]}`+"\n"))
		if served, err := load(dir); !served || err != nil {
			t.Errorf("with the .bin present: served=%v err=%v, want a warm run", served, err)
		}
		if err := os.Remove(doc); err != nil {
			t.Fatal(err)
		}
		if served, err := load(dir); served || err != nil {
			t.Errorf("with only the .json: served=%v err=%v, want a quiet cold run", served, err)
		}
	})
	t.Run("unknown flag bits", func(t *testing.T) {
		// The retired bit 2 and a never-assigned bit 8, each set on the
		// published region's flags (Trace|Pattern) and correctly sealed:
		// a defective document, not a quiet miss.
		for _, bit := range []byte{2, 8} {
			dir, doc, data := publish(t)
			at := len(Schema) + 1
			keyLen, n := binary.Uvarint(data[at:])
			at += n + int(keyLen)
			_, n = binary.Uvarint(data[at:]) // region count
			at += n
			_, n = binary.Uvarint(data[at:]) // PC
			at += n
			if data[at] != flagTrace|flagPattern {
				t.Fatalf("flags byte %#x, want Trace|Pattern", data[at])
			}
			body := bytes.Clone(data[:len(data)-4])
			body[at] |= bit
			write(t, doc, reseal(body))
			if served, err := load(dir); served || err == nil || !strings.Contains(err.Error(), "flag bits") {
				t.Errorf("flag bit %d: served=%v err=%v, want a cold run and an error", bit, served, err)
			}
		}
	})
	t.Run("not a document", func(t *testing.T) {
		dir, doc, _ := publish(t)
		write(t, doc, []byte(`{"schema":"ghostbusters/tcache/v1"}`+"\n"))
		if served, err := load(dir); served || err == nil {
			t.Errorf("served=%v err=%v, want a cold run and an error", served, err)
		}
	})
}

// A directory-less cache is a pure in-memory store: same semantics,
// nothing on disk, never an error.
func TestInMemoryCache(t *testing.T) {
	c := New("")
	k := testKey(testProg(), "unsafe", "cfg", "")
	r := open(c, k)
	if r.Lookup(0x1000, true) != nil {
		t.Fatal("empty cache returned a region")
	}
	r.Record(testRegion(0x1000))
	r.Publish()

	warm := open(c, k)
	if warm.Lookup(0x1000, true) == nil {
		t.Fatal("in-memory cache lost the published region")
	}
	if open(c, testKey(testProg(), "fence", "cfg", "")).Lookup(0x1000, true) != nil {
		t.Error("region leaked across modes")
	}
	hits, misses, persisted := c.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("probe counters not maintained: hits=%d misses=%d", hits, misses)
	}
	if persisted != 0 {
		t.Errorf("in-memory cache wrote %d documents", persisted)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// Publishing the same run twice (two machines, same key) must stay
// idempotent: regions merge, the document is written once per change.
func TestPublishIdempotent(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	k := testKey(testProg(), "unsafe", "cfg", "")

	r1 := open(c, k)
	r1.Record(testRegion(0x1000))
	r1.Publish()
	_, _, p1 := c.Stats()

	r2 := open(c, k)
	r2.Record(testRegion(0x1000)) // same region, recorded by a second cold-ish run
	r2.Publish()
	_, _, p2 := c.Stats()
	if p2 != p1 {
		t.Errorf("re-publishing known regions rewrote the document (%d -> %d writes)", p1, p2)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
