package emu

import (
	"errors"
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/elf"
)

// TestFastPathPageLogAtPageBoundary: hand-built programs whose code
// crosses a page boundary must log the same pages, at the same first
// steps, on the fast path as on the interpreter — where one
// instruction straddles the boundary, where a straight-line block
// steps from one page into the next between instructions, and where
// the step limit ends the run just before the first instruction on the
// new page (which must then stay unlogged). The fast runs must really
// dispatch micro-ops, not fall back to Step.
func TestFastPathPageLogAtPageBoundary(t *testing.T) {
	movExit := []byte{0x48, 0xC7, 0xC0, 0x3C, 0x00, 0x00, 0x00} // mov rax, 60
	xorRdi := []byte{0x48, 0x31, 0xFF}                          // xor rdi, rdi
	syscall := []byte{0x0F, 0x05}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	const base = 0x402000 - 8
	straddle := cat(xorRdi, []byte{0x90, 0x90}, movExit, syscall)
	crossing := cat(xorRdi, []byte{0x90, 0x90, 0x90, 0x90, 0x90}, movExit, syscall)
	for _, tc := range []struct {
		name  string
		code  []byte
		limit uint64 // step limit; 0 = run to the exit
		want  map[uint64]uint64
	}{
		// xor at -8, two nops at -5/-4, mov at -3..+3, syscall at +4:
		// the mov (step 3) fetches from both pages.
		{"straddling instruction", straddle, 0, map[uint64]uint64{0x401000: 0, 0x402000: 3}},
		{"limit before straddling instruction", straddle, 3, map[uint64]uint64{0x401000: 0}},
		// xor at -8, five nops up to -1, mov at the boundary (step 6):
		// one block, no instruction crosses.
		{"block crossing", crossing, 0, map[uint64]uint64{0x401000: 0, 0x402000: 6}},
		{"limit before block crossing", crossing, 6, map[uint64]uint64{0x401000: 0}},
	} {
		bin := &elf.Binary{
			Entry: base,
			Sections: []*elf.Section{
				{Name: ".text", Addr: base, Data: tc.code, Flags: elf.FlagRead | elf.FlagExec},
			},
		}
		for _, singleStep := range []bool{false, true} {
			m := New(bin, Config{RecordPages: true, SingleStep: singleStep, StepLimit: tc.limit})
			res, err := m.Run()
			if tc.limit == 0 && (err != nil || !res.Exited || res.ExitCode != 0) ||
				tc.limit > 0 && (!errors.Is(err, ErrStepLimit) || res.Steps != tc.limit) {
				t.Fatalf("%s (single-step %v): run = %+v, %v", tc.name, singleStep, res, err)
			}
			if !reflect.DeepEqual(m.PageLog(), tc.want) {
				t.Errorf("%s (single-step %v): page log %v, want %v", tc.name, singleStep, m.PageLog(), tc.want)
			}
			if fast := m.priv != nil && len(m.priv.uops) > 0; fast == singleStep {
				t.Errorf("%s (single-step %v): translated micro-ops = %v", tc.name, singleStep, fast)
			}
			m.Release()
		}
	}
}
