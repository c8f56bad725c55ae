// Command pimphony-compile runs the compiler pipeline on a model: it
// builds the decoder-layer IR, detects the PIM-amenable kernels, lowers
// them to PIM instruction programs, and prints the instruction-footprint
// comparison between the conventional static unrolling and the DPA
// encoding (the paper's Fig. 10c).
package main

import (
	"flag"
	"fmt"
	"log"

	"pimphony/internal/compiler"
	"pimphony/internal/isa"
	"pimphony/internal/model"
	"pimphony/internal/tablefmt"
	"pimphony/internal/timing"
)

func main() {
	modelName := flag.String("model", "7b-128k-gqa", "model: 7b-32k, 7b-128k-gqa, 72b-32k, 72b-128k-gqa")
	tcp := flag.Bool("tcp", true, "lower with token-centric channel masks")
	tokens := flag.Int("tokens", 65536, "context length to expand at")
	disasm := flag.Bool("disasm", false, "print the disassembly of every lowered attention program")
	flag.Parse()

	m, err := model.ByFlag(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	if *tokens < 1 {
		log.Fatalf("-tokens must be at least 1, got %d", *tokens)
	}

	tgt := compiler.Target{Dev: timing.AiM16().WithChannels(32), TCP: *tcp}
	c, err := compiler.Compile(m, tgt)
	if err != nil {
		log.Fatal(err)
	}

	kt := tablefmt.New(fmt.Sprintf("Detected kernels — %s", m.Name),
		"label", "class", "din", "dout", "head-dim", "token-dep")
	for _, k := range c.Kernels {
		kt.AddRow(k.Label, k.Class.String(), k.DIn, k.DOut, k.HeadDim, k.TokenDependent)
	}
	fmt.Print(kt)
	fmt.Println()

	pt := tablefmt.New("Lowered attention programs (DPA encoding)",
		"program", "inst-words", "bytes", "mac-cmds@tokens", "io-cmds@tokens")
	for _, p := range c.DPAttn {
		counts, err := p.CountExpanded(*tokens)
		if err != nil {
			log.Fatal(err)
		}
		pt.AddRow(p.Name, p.Len(), p.EncodedSize(),
			counts[isa.MAC], counts[isa.WRINP]+counts[isa.RDOUT])
	}
	fmt.Print(pt)
	fmt.Println()

	if *disasm {
		for _, p := range c.DPAttn {
			fmt.Println(p.Disassemble())
		}
	}

	ft := tablefmt.New("Instruction footprint: static unrolling vs DPA (per layer)",
		"context", "static-bytes", "dpa-bytes", "ratio")
	for _, ctx := range []int{32 << 10, 128 << 10, 512 << 10, 1 << 20} {
		st, err := c.StaticFootprint(ctx)
		if err != nil {
			log.Fatal(err)
		}
		dpa := c.DPAFootprint()
		ft.AddRow(ctx, st, dpa, float64(st)/float64(dpa))
	}
	fmt.Print(ft)
}
