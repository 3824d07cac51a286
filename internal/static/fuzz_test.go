package static

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/elf"
)

// fuzzBin wraps arbitrary bytes as an executable text section the way
// the bit-flip model produces them: any byte soup must analyze without
// panicking.
func fuzzBin(code []byte) *elf.Binary {
	return &elf.Binary{
		Entry: 0x401000,
		Sections: []*elf.Section{
			{Name: ".text", Addr: 0x401000, Data: code, Flags: elf.FlagRead | elf.FlagExec},
		},
	}
}

// FuzzCFGBuilder: decoding arbitrary bytes and building the CFG,
// dominator tree and dataflow facts must never panic, and the
// structural invariants the verifier leans on must hold: blocks
// partition the reachable instructions, edges are symmetric, the entry
// dominates every reachable block, and liveness is defined exactly on
// the program's addresses.
func FuzzCFGBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x90, 0x90, 0xC3})                               // nop; nop; ret
	f.Add([]byte{0xEB, 0xFE})                                     // jmp self
	f.Add([]byte{0x75, 0x02, 0x0F, 0x05, 0xF4})                   // jne +2; syscall; hlt
	f.Add([]byte{0x48, 0xC7, 0xC0, 0x3C, 0, 0, 0, 0x0F, 0x05})    // mov rax,60; syscall
	f.Add([]byte{0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3})             // call +0; ret
	f.Add([]byte{0x06, 0x06, 0x06})                               // undecodable
	f.Add([]byte{0x74, 0xFE, 0xEB, 0xFC, 0x90, 0x48, 0xFF, 0xC0}) // tangled loops
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		a, err := Analyze(fuzzBin(code))
		if err != nil {
			return // only an unmapped entry fails; empty .text does
		}
		p, g := a.Prog, a.CFG

		seen := make(map[uint64]bool)
		for _, b := range g.Blocks {
			if len(b.Addrs) == 0 {
				t.Fatalf("empty block at %#x", b.Start)
			}
			if b.Addrs[0] != b.Start {
				t.Fatalf("block %#x: first addr %#x", b.Start, b.Addrs[0])
			}
			for i, addr := range b.Addrs {
				if seen[addr] {
					t.Fatalf("address %#x in two blocks", addr)
				}
				seen[addr] = true
				_, inst := p.Insts[addr]
				_, und := p.Undecoded[addr]
				if !inst && !und {
					t.Fatalf("block addr %#x not in program", addr)
				}
				// Only the last instruction may branch or terminate.
				if i < len(b.Addrs)-1 && len(p.Succs[addr]) != 1 {
					t.Fatalf("non-tail addr %#x has %d succs", addr, len(p.Succs[addr]))
				}
			}
			for _, s := range b.Succs {
				found := false
				for _, pb := range s.Preds {
					if pb == b {
						found = true
					}
				}
				if !found {
					t.Fatalf("edge %#x->%#x not in preds", b.Start, s.Start)
				}
			}
		}
		reach := g.Reachable()
		for _, b := range g.Blocks {
			if reach[b.Start] && !g.Entry.Dominates(b) {
				t.Fatalf("entry does not dominate reachable block %#x", b.Start)
			}
			if !reach[b.Start] && b.Idom() != nil {
				t.Fatalf("unreachable block %#x has an idom", b.Start)
			}
		}
		for addr := range p.Insts {
			if !seen[addr] {
				t.Fatalf("instruction %#x not in any block", addr)
			}
			a.LiveIn(addr) // must be defined, not panic
		}
	})
}

// FuzzELFLoad: the path an arbitrary user-supplied file takes through
// `r2r verify BIN` and `r2r campaign BIN` — elf.Load (or the raw
// section-header Parse) followed by Analyze and CheckCoverage — must
// never panic on any byte stream, and the verdict on an image that
// loads must be a pure function of its bytes. The committed seeds are
// every catalog binary (`r2r cases -dir D`, the *.elf files) and the
// standalone images `r2r hybrid -emit` writes for them.
func FuzzELFLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x7fELF"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range []func([]byte) (*elf.Binary, error){elf.Load, elf.Parse} {
			bin, err := load(data)
			if err != nil {
				continue
			}
			a, err := Analyze(bin)
			if err != nil {
				continue
			}
			first := a.CheckCoverage()
			b, err := Analyze(bin)
			if err != nil {
				t.Fatalf("second analysis of the same image failed: %v", err)
			}
			if again := b.CheckCoverage(); !reflect.DeepEqual(first, again) {
				t.Fatalf("coverage verdict not deterministic: %v vs %v", first, again)
			}
		}
	})
}
