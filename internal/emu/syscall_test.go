package emu

import (
	"bytes"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/isa"
)

// readProg reads count bytes into a 16-byte buffer, exits with the
// syscall's return value truncated to a byte (so tests can observe the
// transfer count without parsing stdout).
func readProg(count string) string {
	return `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, ` + count + `
	syscall
	mov rdi, rax
	mov rax, 60
	syscall
.bss
buf: .zero 16
`
}

// TestReadOversizedCountClamps: a count above maxIOChunk — the shape a
// fault-corrupted length register takes — clamps to the chunk bound and
// returns the partial transfer, like the kernel's MAX_RW_COUNT clamp,
// instead of an emulator-only -EFAULT.
func TestReadOversizedCountClamps(t *testing.T) {
	for _, count := range []string{
		"0x200000",           // 2 MiB: above the chunk bound
		"0x8000000000000000", // sign bit set: huge size_t
		"0xffffffffffffffff", // (size_t)-1, the classic corrupted length
	} {
		res := mustExit(t, readProg(count), Config{Stdin: []byte("abcdefgh")}, 8)
		if res.ExitCode != 8 {
			t.Errorf("count %s: read returned %d, want 8 (stdin length)", count, res.ExitCode)
		}
	}
}

// TestReadClampStopsAtBuffer: after clamping, the transfer is still
// bounded by what is actually available and mapped — the read lands the
// stdin bytes in the buffer exactly as a well-sized read would.
func TestReadClampStopsAtBuffer(t *testing.T) {
	src := `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 0xffffffffffffffff
	syscall
	mov rax, [rip+buf]
	mov rbx, 0x3837363534333231  ; "12345678" little-endian
	cmp rax, rbx
	jne bad
	mov rax, 60
	mov rdi, 0
	syscall
bad:
	mov rax, 60
	mov rdi, 1
	syscall
.bss
buf: .zero 16
`
	mustExit(t, src, Config{Stdin: []byte("12345678")}, 0)
}

// TestWriteOversizedCountClamped: an oversized write count clamps
// instead of erroring; the transfer then fails with -EFAULT only
// because the clamped range genuinely runs off the mapped buffer —
// the same failure the kernel's copy_from_user would hit.
func TestWriteOversizedCountClamped(t *testing.T) {
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 0xffffffffffffffff
	syscall
	mov rdi, rax
	neg rdi
	mov rax, 60
	syscall
.rodata
msg: .ascii "x"
`
	// 14 = EFAULT: the clamped 1 MiB range extends past the data page.
	mustExit(t, src, Config{}, 14)
}

// TestWriteInChunkBound: a write whose count fits the chunk bound is
// unaffected by the clamp.
func TestWriteInChunkBound(t *testing.T) {
	src := `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, msg_len
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
.rodata
msg: .ascii "ok\n"
.equ msg_len, . - msg
`
	res := mustExit(t, src, Config{}, 0)
	if string(res.Stdout) != "ok\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestIOCount(t *testing.T) {
	cases := []struct {
		raw  uint64
		want int
	}{
		{0, 0},
		{8, 8},
		{maxIOChunk, maxIOChunk},
		{maxIOChunk + 1, maxIOChunk},
		{1 << 63, maxIOChunk},
		{^uint64(0), maxIOChunk},
	}
	for _, tc := range cases {
		if got := ioCount(tc.raw); got != tc.want {
			t.Errorf("ioCount(%#x) = %d, want %d", tc.raw, got, tc.want)
		}
	}
}

// writeForkProg writes "A" from msg, pauses after that syscall (step
// 5), then writes one byte from wherever rsi points and exits.
const writeForkProg = `
.text
_start:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+msg]
	mov rdx, 1
	syscall
	mov rax, 1
	mov rdi, 1
	mov rdx, 1
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
.data
msg: .ascii "AXY"
`

// forkAfterFirstWrite runs writeForkProg to its pause point and
// snapshots it. It returns the snapshot and msg's address.
func forkAfterFirstWrite(t *testing.T) (*Snapshot, uint64) {
	t.Helper()
	bin, err := asm.Assemble(writeForkProg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(bin, Config{})
	if _, done, err := m.RunUntil(5); done || err != nil {
		t.Fatalf("prefix: done=%v err=%v", done, err)
	}
	if string(m.Stdout) != "A" {
		t.Fatalf("prefix stdout = %q, want \"A\"", m.Stdout)
	}
	return m.Snapshot(), m.Regs[isa.RSI]
}

// TestWriteFaultAllocatesNothing: a write whose source range is
// unmapped, or mapped only in part, fails with -EFAULT before the
// emulator allocates anything — a fault-corrupted length or pointer
// must not cost the clamped megabyte.
func TestWriteFaultAllocatesNothing(t *testing.T) {
	snap, msg := forkAfterFirstWrite(t)
	m := snap.Resume(Config{})
	defer m.Release()
	for _, tc := range []struct {
		name string
		addr uint64
		n    uint64
	}{
		{"unmapped", 0x10, 8},
		{"partly mapped", msg, 1 << 20},
		{"wrapping", ^uint64(0) - 3, 8},
	} {
		call := func() {
			m.Regs[isa.RAX], m.Regs[isa.RDI] = sysWrite, 1
			m.Regs[isa.RSI], m.Regs[isa.RDX] = tc.addr, tc.n
			if err := m.syscall(0); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if got := int64(m.Regs[isa.RAX]); got != -errnoFAULT {
			t.Errorf("%s: write returned %d, want %d", tc.name, got, -errnoFAULT)
		}
		if string(m.Stdout) != "A" {
			t.Errorf("%s: stdout = %q after a failed write", tc.name, m.Stdout)
		}
		if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
			t.Errorf("%s: failed write allocated %v times", tc.name, allocs)
		}
	}
}

// TestWriteFromUntouchedPages: mapped pages no instruction ever wrote
// (the stack below rsp) read as zeros, and bytes the program did write
// land at their offsets in between.
func TestWriteFromUntouchedPages(t *testing.T) {
	src := `
.text
_start:
	mov rax, 0x1122334455667788
	push rax
	mov rax, 1
	mov rdi, 1
	mov rsi, rsp
	sub rsi, 0x3000
	mov rdx, 0x3010
	syscall
	mov rdi, rax
	sub rdi, 0x3010
	mov rax, 60
	syscall
`
	res := mustExit(t, src, Config{}, 0)
	want := make([]byte, 0x3010)
	copy(want[0x3000:], []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11})
	if !bytes.Equal(res.Stdout, want) {
		t.Errorf("stdout differs from zeros plus the pushed qword (len %d)", len(res.Stdout))
	}
}

// TestWriteForksIndependent: two forks of one snapshot that each write
// keep independent output streams — a write grows the stream in place
// only when it owns the spare capacity, and a snapshot's streams own
// none.
func TestWriteForksIndependent(t *testing.T) {
	snap, msg := forkAfterFirstWrite(t)
	var outs [][]byte
	for i := uint64(1); i <= 2; i++ {
		m := snap.Resume(Config{})
		m.Regs[isa.RSI] = msg + i
		res, err := m.Run()
		if err != nil || !res.Exited {
			t.Fatalf("fork %d: %+v, %v", i, res, err)
		}
		outs = append(outs, res.Stdout)
		m.Release()
	}
	if string(outs[0]) != "AX" || string(outs[1]) != "AY" {
		t.Errorf("fork stdouts = %q, %q, want \"AX\", \"AY\"", outs[0], outs[1])
	}
}
