// Command gbdump shows what the DBT engine makes of a guest program:
// it runs the program until translation stabilises, then prints the
// translated VLIW code for each hot region and, optionally, the IR
// data-flow graph of a block in Graphviz format with the poison
// analysis overlaid (the paper's Figure 3): poisoned nodes and their
// data edges in red/blue, pinned accesses highlighted, and — under the
// ghostbusters mode — the inserted guard edges rendered as dashed red
// control dependencies.
//
//	gbdump [-mode <mitigation>] [-dot addr]
//	       [-encode] program.s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"ghostbusters"
	"ghostbusters/internal/vliw"
)

func main() {
	mode := flag.String("mode", ghostbusters.ModeUnsafe.String(), "mitigation mode")
	dotAt := flag.String("dot", "", "emit the IR DFG at this guest address (hex) as Graphviz")
	encode := flag.Bool("encode", false, "also report binary-encoded block sizes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gbdump [flags] program.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	fail(err)
	m, err := ghostbusters.ParseMode(*mode)
	fail(err)
	prog, err := ghostbusters.Assemble(string(src))
	fail(err)

	machine, err := ghostbusters.NewMachine(ghostbusters.WithMitigation(ghostbusters.DefaultConfig(), m))
	fail(err)
	fail(machine.Load(prog))
	res, err := machine.Run()
	fail(err)

	fmt.Printf("guest exited %d after %d cycles; %d blocks, %d traces translated\n\n",
		res.Exit.Code, res.Cycles, res.Stats.Blocks, res.Stats.Traces)

	if *dotAt != "" {
		addr, err := strconv.ParseUint(*dotAt, 0, 64)
		if err != nil {
			fail(fmt.Errorf("-dot: %q is not an address (want hex like 0x10b4)", *dotAt))
		}
		if machine.BlockAt(addr) == nil {
			fmt.Fprintf(os.Stderr, "gbdump: no translated block starts at %#x\n", addr)
			if pcs := machine.TranslatedPCs(); len(pcs) == 0 {
				fmt.Fprintln(os.Stderr, "gbdump: nothing was translated — the program never crossed the hotness threshold")
			} else {
				fmt.Fprintln(os.Stderr, "gbdump: translated entry points:")
				for _, pc := range pcs {
					fmt.Fprintf(os.Stderr, "  %#x%s\n", pc, symbolAt(prog, pc))
				}
			}
			os.Exit(1)
		}
		dot, err := machine.DumpIR(addr)
		fail(err)
		fmt.Println(dot)
		return
	}

	// Walk the text segment for translated entry points, hottest first.
	type region struct {
		pc  uint64
		blk *vliw.Block
	}
	var regions []region
	for pc := prog.TextBase; pc < prog.TextBase+uint64(4*len(prog.Text)); pc += 4 {
		if blk := machine.BlockAt(pc); blk != nil {
			regions = append(regions, region{pc, blk})
		}
	}
	sort.Slice(regions, func(a, b int) bool {
		return regions[a].blk.GuestInsts > regions[b].blk.GuestInsts
	})
	for _, r := range regions {
		fmt.Printf("--- %#x%s (%d guest insts)\n", r.pc, symbolAt(prog, r.pc), r.blk.GuestInsts)
		fmt.Print(r.blk.String())
		if *encode {
			data, err := vliw.AppendBlock(nil, r.blk)
			fail(err)
			fmt.Printf("    encoded: %d bytes (%.2f bytes/guest inst)\n",
				len(data), float64(len(data))/float64(r.blk.GuestInsts))
		}
		fmt.Println()
	}
}

// symbolAt renders " <name>" when a symbol is defined at pc, else "".
func symbolAt(prog *ghostbusters.Program, pc uint64) string {
	for sym, a := range prog.Symbols {
		if a == pc {
			return " <" + sym + ">"
		}
	}
	return ""
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbdump:", err)
		os.Exit(1)
	}
}
