package vliw_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/vliw"
)

// Golden digests of every block a small Figure 4 + PoC sweep installs
// under the Figure 4 modes: the SHA-256 of their AppendBlock encodings
// (the tcache v2 document bytes) and of their Block.String renderings
// (gbdump), each concatenated in translation order. A change to the
// block's in-memory form must leave both unchanged, so that documents
// written before it still load and hit, and dumps still diff clean.
const (
	goldenBlocks     = 448
	goldenRecoveries = 161
	goldenEncodeSHA  = "663908e236e889e3d88ad066f68678f8fd2d9940db646beeab930b9c3b8fec27"
	goldenStringSHA  = "f43d8c03506ad085b17e24ba95364c20609b00a06bad874406536ae243a4d69d"
)

// blockDigests translates every source under the Figure 4 modes and
// digests the blocks as the golden constants describe.
func blockDigests(t *testing.T, srcs ...string) (n, recs int, encSHA, strSHA string) {
	enc, str := sha256.New(), sha256.New()
	for _, src := range srcs {
		for _, b := range translatedBlocks(t, src) {
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
// fence. The digests were recorded from the nop-padded block form.
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
	if want := "0e8438ad5c16f899bc7b6ee635f3b4a7cfefa963cbefe8f424fe450170200bae"; n != 4 || enc != want {
		t.Errorf("AppendBlock over %d blocks: sha256 %s, want 4 blocks, %s", n, enc, want)
	}
	if want := "f53b80371e2c6f32859ece15a3afffbb0221b93cbb5892ccef2be6ed073e3fc6"; str != want {
		t.Errorf("Block.String over %d blocks: sha256 %s, want %s", n, str, want)
	}
}
