package vliw_test

import (
	"reflect"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// translatedBlocks runs src under every Fig. 4 mode and returns each
// block the machine translated. Kernel inputs stay zero: the seeds need
// the code shapes, not the results.
func translatedBlocks(t testing.TB, src string) []*vliw.Block {
	p, err := riscv.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*vliw.Block
	for _, mode := range pipeline.Fig4Modes() {
		cfg := dbt.DefaultConfig()
		cfg.Mitigation = mode
		m, err := dbt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		m.Run() // a trapping guest still leaves its translations behind
		for _, pc := range m.TranslatedPCs() {
			blocks = append(blocks, m.BlockAt(pc))
		}
		m.Release()
	}
	return blocks
}

// FuzzDecodeBlock feeds hostile images to both decoders. Neither may
// panic, and whatever one accepts must survive a re-encode unchanged:
// DecodeBlock through EncodeBlock, ConsumeBlock (GuestPCs included)
// through AppendBlock. The seeds are the encoded blocks of the Fig. 4
// kernels and both PoCs, each in word-image and lossless form.
func FuzzDecodeBlock(f *testing.F) {
	var srcs []string
	for _, k := range polybench.All() {
		spec, err := k.Make(k.DefaultN / 2)
		if err != nil {
			f.Fatal(err)
		}
		srcs = append(srcs, spec.Source)
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		src, err := attack.Source(v, dbt.DefaultConfig(), attack.Params{})
		if err != nil {
			f.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for _, src := range srcs {
		for _, b := range translatedBlocks(f, src) {
			words, err := vliw.EncodeBlock(b)
			if err != nil {
				f.Fatal(err)
			}
			full, err := vliw.AppendBlock(nil, b)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(words)
			f.Add(full)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := vliw.DecodeBlock(data); err == nil {
			again, err := vliw.EncodeBlock(b)
			if err != nil {
				t.Fatalf("decoded block does not re-encode: %v", err)
			}
			b2, err := vliw.DecodeBlock(again)
			if err != nil {
				t.Fatalf("re-encoded block does not decode: %v", err)
			}
			if !reflect.DeepEqual(b, b2) {
				t.Fatalf("word round trip changed the block:\n%v\n%v", b, b2)
			}
		}
		if b, n, err := vliw.ConsumeBlock(data); err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			again, err := vliw.AppendBlock(nil, b)
			if err != nil {
				t.Fatalf("decoded block does not re-encode: %v", err)
			}
			b2, n2, err := vliw.ConsumeBlock(again)
			if err != nil {
				t.Fatalf("re-encoded block does not decode: %v", err)
			}
			if n2 != len(again) || !reflect.DeepEqual(b, b2) {
				t.Fatalf("lossless round trip changed the block (%d of %d bytes):\n%v\n%v", n2, len(again), b, b2)
			}
		}
	})
}
