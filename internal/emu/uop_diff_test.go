package emu_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/isa"
)

// sameResult compares two complete runs: exit status, step count, and
// both output streams must match bit for bit, as must the error state.
func sameResult(t *testing.T, label string, rf emu.Result, ef error, rs emu.Result, es error) {
	t.Helper()
	if (ef == nil) != (es == nil) {
		t.Fatalf("%s: error divergence: fast=%v slow=%v", label, ef, es)
	}
	if ef != nil && es != nil && ef.Error() != es.Error() {
		t.Fatalf("%s: error text divergence: fast=%v slow=%v", label, ef, es)
	}
	if rf.Exited != rs.Exited || rf.ExitCode != rs.ExitCode {
		t.Fatalf("%s: exit divergence: fast=(%v,%d) slow=(%v,%d)",
			label, rf.Exited, rf.ExitCode, rs.Exited, rs.ExitCode)
	}
	if rf.Steps != rs.Steps {
		t.Fatalf("%s: step divergence: fast=%d slow=%d", label, rf.Steps, rs.Steps)
	}
	if !bytes.Equal(rf.Stdout, rs.Stdout) || !bytes.Equal(rf.Stderr, rs.Stderr) {
		t.Fatalf("%s: output divergence: fast=(%q,%q) slow=(%q,%q)",
			label, rf.Stdout, rf.Stderr, rs.Stdout, rs.Stderr)
	}
}

// samePageLog compares two recorded runs' code-page footprints: the
// same pages, each first fetched at the same step.
func samePageLog(t *testing.T, label string, fast, slow *emu.Machine) {
	t.Helper()
	if len(slow.PageLog()) == 0 {
		t.Fatalf("%s: interpreter recorded no pages", label)
	}
	if !reflect.DeepEqual(fast.PageLog(), slow.PageLog()) {
		t.Fatalf("%s: page log divergence: fast=%v slow=%v", label, fast.PageLog(), slow.PageLog())
	}
}

// TestFastPathDifferential: for every case study and both inputs, the
// micro-op fast path (the default) and the forced single-step
// interpreter must produce bit-identical runs, with and without page
// recording, and recorded runs must log identical page footprints.
// This is the fast path's core contract — it is an execution strategy,
// never a semantic change.
func TestFastPathDifferential(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			bin, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{c.Good, c.Bad} {
				for _, rec := range []bool{false, true} {
					fm := emu.New(bin, emu.Config{Stdin: in, RecordPages: rec})
					sm := emu.New(bin, emu.Config{Stdin: in, RecordPages: rec, SingleStep: true})
					rf, ef := fm.Run()
					rs, es := sm.Run()
					sameResult(t, string(in), rf, ef, rs, es)
					if rec {
						samePageLog(t, string(in), fm, sm)
					}
				}
			}
		})
	}
}

// TestFastPathHookWindowParity: a windowed hook must observe exactly
// what the same hook observes on the single-step interpreter — the
// fast path has to drop to single-stepping across the armed window and
// may not skip past the hook's firing step.
func TestFastPathHookWindowParity(t *testing.T) {
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []uint64{0, 1, 17, 100, 1000} {
		runWith := func(singleStep bool) (uint64, []uint64, emu.Result, error) {
			var fired []uint64
			cfg := emu.Config{Stdin: c.Bad, SingleStep: singleStep}
			cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
				if m.Steps-1 == step {
					fired = append(fired, m.RIP)
					return emu.ActSkip
				}
				return emu.ActContinue
			}, step, step+1)
			m := emu.New(bin, cfg)
			res, err := m.Run()
			return res.Steps, fired, res, err
		}
		_, firedF, rf, ef := runWith(false)
		_, firedS, rs, es := runWith(true)
		if len(firedF) != len(firedS) {
			t.Fatalf("step %d: hook fired %d times fast, %d slow", step, len(firedF), len(firedS))
		}
		for i := range firedF {
			if firedF[i] != firedS[i] {
				t.Fatalf("step %d: hook saw RIP %#x fast, %#x slow", step, firedF[i], firedS[i])
			}
		}
		sameResult(t, "hooked run", rf, ef, rs, es)
	}
}

// TestFastPathSnapshotResumeParity: forking a mid-run snapshot must be
// bit-identical between the fast path and the interpreter, including
// when the fork carries an armed hook window and records its pages
// (the memo-recording injection pattern).
func TestFastPathSnapshotResumeParity(t *testing.T) {
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, _ := emu.New(bin, emu.Config{Stdin: c.Bad}).Run()
	if full.Steps < 8 {
		t.Fatalf("trace too short to fork: %d steps", full.Steps)
	}
	at, hook := full.Steps/2, full.Steps/2+full.Steps/4
	m := emu.New(bin, emu.Config{Stdin: c.Bad})
	if _, done, err := m.RunUntil(at); done || err != nil {
		t.Fatalf("prefix run ended early: done=%v err=%v", done, err)
	}
	snap := m.Snapshot()
	fork := func(singleStep, rec bool) (*emu.Machine, emu.Result, error) {
		cfg := emu.Config{SingleStep: singleStep, RecordPages: rec}
		cfg.AddStepHookWindow(func(m *emu.Machine, in *isa.Inst) emu.StepAction {
			if m.Steps-1 == hook {
				return emu.ActSkip
			}
			return emu.ActContinue
		}, hook, hook+1)
		m2 := snap.Resume(cfg)
		res, err := m2.Run()
		return m2, res, err
	}
	for _, rec := range []bool{false, true} {
		fm, rf, ef := fork(false, rec)
		sm, rs, es := fork(true, rec)
		sameResult(t, "fork", rf, ef, rs, es)
		if rec {
			samePageLog(t, "fork", fm, sm)
		}
		fm.Release()
		sm.Release()
	}
}

// TestReleaseReuseIdentical: recycling machines through Release must
// never leak state between runs — a pooled machine replays exactly
// like a fresh one.
func TestReleaseReuseIdentical(t *testing.T) {
	c := cases.Pincheck()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, eref := emu.New(bin, emu.Config{Stdin: c.Good}).Run()
	for i := 0; i < 32; i++ {
		in, want, ewant := c.Good, ref, eref
		if i%2 == 1 {
			in = c.Bad
		}
		m := emu.New(bin, emu.Config{Stdin: in})
		res, err := m.Run()
		if i%2 == 1 {
			// Alternating inputs through the same pools: only compare
			// the invariant halves.
			if err == nil != (res.Exited) && !res.Exited {
				t.Fatalf("iteration %d: inconsistent result", i)
			}
		} else {
			sameResult(t, "pooled rerun", res, err, want, ewant)
		}
		m.Release()
	}
}
