package vliw_test

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/vliw"
)

// Golden digests of every block a small Figure 4 + PoC sweep installs
// under the Figure 4 modes: the SHA-256 of their AppendBlock encodings
// (the block bytes of a tcache v3 document) and of their Block.String
// renderings (gbdump), each concatenated in translation order. The
// encoding digest moves only with a new document schema, since a
// document of another schema is a miss; the rendering digest pins the
// code itself, so dumps diff clean across codec changes.
const (
	goldenBlocks     = 448
	goldenRecoveries = 161
	goldenEncodeSHA  = "ae241ff57e1c5b0387fab59bdde90e4e5ffe0178c365a54dc44dd2eef13fdfc1"
	goldenStringSHA  = "f43d8c03506ad085b17e24ba95364c20609b00a06bad874406536ae243a4d69d"
)

// blockDigests translates every source under the Figure 4 modes and
// digests the blocks as the golden constants describe. Each block must
// be in its canonical dense form, equal to the packing of its own
// expanded bundles: the code generator never leaves padding in an
// occupied slot, which ConsumeBlock would reject.
func blockDigests(t *testing.T, srcs ...string) (n, recs int, encSHA, strSHA string) {
	enc, str := sha256.New(), sha256.New()
	for _, src := range srcs {
		for _, b := range translatedBlocks(t, src) {
			p, _, err := repack(b)
			if err != nil || !slices.Equal(p.Syls, b.Syls) || !slices.Equal(p.Slots, b.Slots) ||
				!slices.Equal(p.RecStart, b.RecStart) || p.Width != b.Width {
				t.Fatalf("block %#x is not its canonical dense form (%v):\n%v\npacks to\n%v", b.EntryPC, err, b, p)
			}
			buf, err := vliw.AppendBlock(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			enc.Write(buf)
			s := b.String()
			str.Write([]byte(s))
			n++
			recs += strings.Count(s, "\n  rec")
		}
	}
	return n, recs, hex.EncodeToString(enc.Sum(nil)), hex.EncodeToString(str.Sum(nil))
}

func TestBlockBytesGolden(t *testing.T) {
	var srcs []string
	for _, k := range polybench.All() {
		spec, err := k.Make(8)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, spec.Source)
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		src, err := attack.Source(v, dbt.DefaultConfig(), attack.Params{})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	n, recs, enc, str := blockDigests(t, srcs...)
	if n != goldenBlocks || recs != goldenRecoveries {
		t.Errorf("sweep installs %d blocks with %d recoveries, want %d with %d", n, recs, goldenBlocks, goldenRecoveries)
	}
	if enc != goldenEncodeSHA {
		t.Errorf("AppendBlock over %d blocks: sha256 %s, want %s", n, enc, goldenEncodeSHA)
	}
	if str != goldenStringSHA {
		t.Errorf("Block.String over %d blocks: sha256 %s, want %s", n, str, goldenStringSHA)
	}
}

// A guest fence compiles to a nop that occupies its slot and keeps its
// Op and guest PC, which the encoding carries; the sweep above holds no
// fence.
func TestFenceBlockBytesGolden(t *testing.T) {
	const src = `
main:
	li t0, 0
	li t1, 40
loop:
	fence
	addi t0, t0, 1
	fence
	blt t0, t1, loop
	fence
	ecall
`
	n, _, enc, str := blockDigests(t, src)
	if want := "6f09932ef119c2d481057ab8d5344611d2f0111c8daeee6ddf9b9803c942146d"; n != 4 || enc != want {
		t.Errorf("AppendBlock over %d blocks: sha256 %s, want 4 blocks, %s", n, enc, want)
	}
	if want := "f53b80371e2c6f32859ece15a3afffbb0221b93cbb5892ccef2be6ed073e3fc6"; str != want {
		t.Errorf("Block.String over %d blocks: sha256 %s, want %s", n, str, want)
	}
}
