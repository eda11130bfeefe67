package vliw_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// translatedBlocks runs src under every Fig. 4 mode and returns a heap
// copy of each block the machine translated: a machine's blocks live in
// its arena, which Release hands to the next machine. Kernel inputs stay
// zero: the seeds need the code shapes, not the results.
func translatedBlocks(t testing.TB, src string) []*vliw.Block {
	p, err := riscv.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*vliw.Block
	for _, mode := range core.Fig4Modes() {
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
			blocks = append(blocks, m.BlockAt(pc).Clone())
		}
		m.Release()
	}
	return blocks
}

// FuzzDecodeBlock feeds hostile images to ConsumeBlock. It may not
// panic, and whatever it accepts must survive a re-encode through
// AppendBlock unchanged, GuestPCs included. Its bundles, expanded to
// full width with nops in whatever slots the image put them, must pack
// back into the same block and expand to the same bundles. The seeds
// are the encoded blocks of the Fig. 4 kernels and both PoCs, each in
// full and cut off where its GuestPC table starts.
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
			full, err := vliw.AppendBlock(nil, b)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(full)
			f.Add(full[:len(full)-guestPCTableBytes(b)])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
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
				t.Fatalf("round trip changed the block (%d of %d bytes):\n%v\n%v", n2, len(again), b, b2)
			}
			p, bundles, err := repack(b)
			if err != nil {
				t.Fatalf("expanded block does not pack: %v", err)
			}
			if !reflect.DeepEqual(p, b) {
				t.Fatalf("packing the expanded bundles changed the block:\n%v\n%v", b, p)
			}
			for i := range bundles {
				if got := p.AppendBundle(nil, i); !reflect.DeepEqual(got, bundles[i]) {
					t.Fatalf("bundle %d expands to %v, packed from %v", i, got, bundles[i])
				}
			}
		}
	})
}

// guestPCTableBytes is the length of b's GuestPC table in its
// encoding: one zigzag uvarint delta per syllable.
func guestPCTableBytes(b *vliw.Block) int {
	var buf [binary.MaxVarintLen64]byte
	n, prev := 0, b.EntryPC
	for _, sy := range b.Syls {
		d := sy.GuestPC - prev
		n += binary.PutUvarint(buf[:], d<<1^uint64(int64(d)>>63))
		prev = sy.GuestPC
	}
	return n
}

// repack expands b's bundles to full width and packs them back with its
// recoveries and its EntryPC, FallPC and GuestInsts. A block in its
// canonical dense form, with no padding in an occupied slot, comes back
// with equal contents.
func repack(b *vliw.Block) (*vliw.Block, []vliw.Bundle, error) {
	bundles := make([]vliw.Bundle, len(b.Slots))
	for i := range bundles {
		bundles[i] = b.AppendBundle(nil, i)
	}
	recs := make([][]vliw.Syllable, len(b.RecStart))
	for k := range recs {
		recs[k] = b.Recovery(k)
	}
	p, err := vliw.Pack(bundles, recs)
	if err != nil {
		return nil, nil, err
	}
	p.EntryPC, p.FallPC, p.GuestInsts = b.EntryPC, b.FallPC, b.GuestInsts
	return p, bundles, nil
}
