package fault

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/elf"
)

// earlyExitGuard prefixes the mini pincheck with a never-taken jz whose
// target is the exit syscall, rax=60 preloaded: a transient bit flip
// that inverts the jz ends the run one step later, before the flip's
// restore step — the first-fault run finishes inside its own effect
// horizon, so the snapshot tree classifies its whole group from it.
const earlyExitGuard = `
.text
_start:
	mov rax, 60
	mov rdi, 3
	test rdi, rdi
	jz quit
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	mov rax, [rip+buf]
	mov rbx, [rip+pin]
	cmp rax, rbx
	jne deny
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+ok]
	mov rdx, 8
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+no]
	mov rdx, 7
	syscall
	mov rax, 60
	mov rdi, 1
quit:
	syscall
.rodata
pin: .ascii "1234ABCD"
ok:  .ascii "GRANTED\n"
no:  .ascii "DENIED\n"
.bss
buf: .zero 8
`

func buildEarlyExit(t *testing.T) *elf.Binary {
	t.Helper()
	return mustAssemble(t, earlyExitGuard)
}

// endsBeforeHorizon reports whether f's solo run finishes before f's
// effect horizon — the snapshot tree's early-classification branch.
func endsBeforeHorizon(s *Session, f Fault) bool {
	end, ok := effectEnd(f)
	if !ok {
		return false
	}
	m := s.rungFor(uint64(f.TraceIndex)).Resume(s.injectionConfig(f))
	_, done, _ := m.RunUntil(end)
	m.Release()
	return done
}

// TestPairShardTreeMatchesColdPath: the first-fault snapshot tree is
// the order-2 engine's new execution strategy, so every outcome it
// produces must classify exactly as a cold two-hook replay from
// _start — including multi-skip first faults (whose effect window can
// swallow the second fault's step, forcing the loose path) and
// transient bit flips (whose restore fetch extends the horizon by one
// step), and first faults whose run ends before that horizon. The
// pruned tree must agree too.
func TestPairShardTreeMatchesColdPath(t *testing.T) {
	for _, tc := range []struct {
		name      string
		models    []Model
		transient bool
		bin       func(*testing.T) *elf.Binary
		earlyExit bool // a grouped pair's first-fault run ends before its horizon
	}{
		{"skip", []Model{ModelSkip}, false, buildMini, false},
		{"bitflip", []Model{ModelBitFlip}, false, buildMini, false},
		{"bitflip-transient", []Model{ModelBitFlip}, true, buildMini, false},
		{"multiskip+regflip", []Model{ModelMultiSkip, ModelRegFlip}, false, buildMini, false},
		{"skip+dataflip", []Model{ModelSkip, ModelDataFlip}, false, buildMini, false},
		{"bitflip-transient-early-exit", []Model{ModelBitFlip}, true, buildEarlyExit, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(Campaign{
				Binary: tc.bin(t), Good: goodPin, Bad: badPin,
				Models: tc.models, Transient: tc.transient,
			})
			if err != nil {
				t.Fatal(err)
			}
			solo, _ := s.ExecuteShard(0, 1, 0, nil)
			pairs := EnumeratePairs(solo, 300)
			if tc.earlyExit {
				pairs = earlyExitPairs(s, solo, 300)
				if !hasEarlyExitGroup(s, pairs) {
					t.Fatal("no grouped pair whose first-fault run ends before its horizon")
				}
			}
			if len(pairs) == 0 {
				t.Skip("no pairs for this model mix")
			}
			tree, tally := s.ExecutePairShard(pairs, 0, 1, 4, nil)
			pruned, prunedTally := s.ExecutePairShardPruned(pairs, s.NewPairPruner(solo), 0, 1, 4, nil)
			var wantTally Tally
			for i, p := range pairs {
				cold := s.SimulateCold(p.First, p.Second)
				wantTally[cold]++
				if tree[i].Outcome != cold {
					t.Errorf("%v: tree path %v, cold path %v", p, tree[i].Outcome, cold)
				}
				if pruned[i].Outcome != cold {
					t.Errorf("%v: pruned tree %v, cold path %v", p, pruned[i].Outcome, cold)
				}
			}
			if tally != wantTally {
				t.Errorf("tree tally %v, cold tally %v", tally, wantTally)
			}
			if prunedTally != wantTally {
				t.Errorf("pruned tree tally %v, cold tally %v", prunedTally, wantTally)
			}
		})
	}
}

// TestPairAdjacentSecondFault pins the loose-path boundary: a pair
// whose second fault strikes inside the first's effect window (the
// immediately following step, inside a multi-skip window) must still
// match the cold path even though the snapshot tree cannot serve it.
func TestPairAdjacentSecondFault(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelMultiSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	// Hand-build adjacent pairs from eligible faults: second fault at
	// the very next trace index, i.e. within the first's skip window.
	var eligible []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			eligible = append(eligible, inj.Fault)
		}
	}
	var pairs []FaultPair
	for _, a := range eligible {
		for _, b := range eligible {
			if b.TraceIndex == a.TraceIndex+1 {
				pairs = append(pairs, FaultPair{First: a, Second: b})
			}
		}
		if len(pairs) >= 50 {
			break
		}
	}
	if len(pairs) == 0 {
		t.Skip("no adjacent pairs")
	}
	got, _ := s.ExecutePairShard(pairs, 0, 1, 2, nil)
	for i, p := range pairs {
		if cold := s.SimulateCold(p.First, p.Second); got[i].Outcome != cold {
			t.Errorf("%v: engine %v, cold %v", p, got[i].Outcome, cold)
		}
	}
}

// TestSimulateRecordConsistent: the recording variant must classify
// exactly like Simulate, report a footprint that includes the fault
// site's page, and be deterministic.
func TestSimulateRecordConsistent(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelSkip, ModelBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Faults() {
		rec := s.SimulateRecord(f)
		if got := s.Simulate(f); rec.Outcome != got {
			t.Errorf("%v: SimulateRecord %v, Simulate %v", f, rec.Outcome, got)
		}
		if len(rec.Pages) == 0 {
			t.Fatalf("%v: empty footprint", f)
		}
		sitePage := f.Addr &^ 0xFFF
		found := false
		for _, pa := range rec.Pages {
			if pa == sitePage {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: footprint %x misses the fault site page %#x", f, rec.Pages, sitePage)
		}
		if again := s.SimulateRecord(f); !reflect.DeepEqual(rec, again) {
			t.Errorf("%v: SimulateRecord not deterministic", f)
		}
	}
}

// earlyExitPairs enumerates every pair and keeps the first max whose
// first fault's run ends before its effect horizon.
func earlyExitPairs(s *Session, solo []Injection, max int) []FaultPair {
	early := make(map[Fault]bool)
	var out []FaultPair
	for _, p := range EnumeratePairs(solo, len(solo)*len(solo)) {
		e, seen := early[p.First]
		if !seen {
			e = endsBeforeHorizon(s, p.First)
			early[p.First] = e
		}
		if e && len(out) < max {
			out = append(out, p)
		}
	}
	return out
}

// hasEarlyExitGroup reports whether some pair joins a snapshot-tree
// group (its second fault strikes at or after the first's horizon)
// whose first-fault run ends before that horizon.
func hasEarlyExitGroup(s *Session, pairs []FaultPair) bool {
	for _, p := range pairs {
		if end, ok := effectEnd(p.First); ok && uint64(p.Second.TraceIndex) >= end && endsBeforeHorizon(s, p.First) {
			return true
		}
	}
	return false
}

// TestTripleEarlyExitFirstFault is the order-3 counterpart of the
// early-exit row above: triples hand-built from first faults whose run
// ends before their effect horizon, with both later faults eligible
// for the group, must match the cold path through the exhaustive and
// the pruned tree.
func TestTripleEarlyExitFirstFault(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildEarlyExit(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelBitFlip}, Transient: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	var eligible []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			eligible = append(eligible, inj.Fault)
		}
	}
	var triples []FaultTriple
	for _, a := range eligible {
		end, ok := effectEnd(a)
		if !ok || !endsBeforeHorizon(s, a) {
			continue
		}
		for _, b := range eligible {
			if uint64(b.TraceIndex) < end {
				continue
			}
			for _, c := range eligible {
				if c.TraceIndex > b.TraceIndex && len(triples) < 50 {
					triples = append(triples, FaultTriple{First: a, Second: b, Third: c})
				}
			}
		}
	}
	if len(triples) == 0 {
		t.Fatal("no early-exit first fault with two later eligible faults")
	}
	plain, _ := s.ExecuteTripleShard(triples, nil, 0, 1, 2, nil)
	pr := s.NewPairPruner(solo)
	pruned, _ := s.ExecuteTripleShard(triples, pr, 0, 1, 2, nil)
	for i, tr := range triples {
		cold := s.SimulateCold(tr.First, tr.Second, tr.Third)
		if plain[i].Outcome != cold || pruned[i].Outcome != cold {
			t.Errorf("%v: tree %v, pruned tree %v, cold %v", tr, plain[i].Outcome, pruned[i].Outcome, cold)
		}
	}
	if st := pr.Stats(); st.Total() != len(triples) {
		t.Errorf("prune stats %+v cover %d of %d triples", st, st.Total(), len(triples))
	}
}
