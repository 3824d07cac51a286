package fault

import (
	"reflect"
	"strings"
	"testing"
)

// TestPrunerBitIdentical: the static order-1 pruner classifies every
// fault exactly like plain simulation, across model combinations, and
// its accounting covers the whole sweep.
func TestPrunerBitIdentical(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelBitFlip}, {ModelSkip, ModelRegFlip, ModelMultiSkip, ModelDataFlip},
	} {
		s, err := NewSession(Campaign{
			Binary: buildMini(t), Good: goodPin, Bad: badPin, Models: models,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, plainTally := s.ExecuteShard(0, 1, 0, nil)
		pr := s.NewPruner()
		pruned, prunedTally := s.ExecuteShardSim(0, 1, 0, pr.Simulate, nil)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("%v: pruned order-1 sweep differs from plain", models)
		}
		if plainTally != prunedTally {
			t.Fatalf("%v: tallies differ: %v vs %v", models, plainTally, prunedTally)
		}
		if st := pr.Stats(); st.Total() != len(plain) {
			t.Fatalf("%v: prune stats cover %d of %d faults", models, st.Total(), len(plain))
		}
	}
}

// TestPrunerStaticBudget: with an injection step budget shorter than
// the trace, faults striking at or past the budget are classified as
// crashes without simulation — and identically to simulating them.
func TestPrunerStaticBudget(t *testing.T) {
	mk := func(limit uint64) *Session {
		s, err := NewSession(Campaign{
			Binary: buildMini(t), Good: goodPin, Bad: badPin,
			Models: []Model{ModelSkip}, InjectionStepLimit: limit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	probe := mk(0)
	limit := uint64(probe.NumFaults()/2 + 1)
	s, ref := mk(limit), mk(limit)
	plain, _ := ref.ExecuteShard(0, 1, 0, nil)
	pr := s.NewPruner()
	pruned, _ := s.ExecuteShardSim(0, 1, 0, pr.Simulate, nil)
	if !reflect.DeepEqual(plain, pruned) {
		t.Fatal("budget-gated sweep differs from plain simulation")
	}
	st := pr.Stats()
	if st.StaticBudget == 0 {
		t.Fatal("no fault hit the static budget gate despite a short budget")
	}
	for _, inj := range pruned {
		if uint64(inj.Fault.TraceIndex) >= limit && inj.Outcome != OutcomeCrash {
			t.Fatalf("fault %v past the budget classified %v, want crash", inj.Fault, inj.Outcome)
		}
	}
}

// TestPrunerStaticDecode: bit-flip sweeps route undecodable encodings
// through the lifted pre-screen, and the pruner counts them.
func TestPrunerStaticDecode(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin, Models: []Model{ModelBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := s.NewPruner()
	s.ExecuteShardSim(0, 1, 0, pr.Simulate, nil)
	if pr.Stats().StaticDecode == 0 {
		t.Fatal("bit-flip sweep produced no decode pre-screen classifications")
	}
}

// TestPrunerRecordBitIdentical: the recording pruner path produces the
// same evidence records as SimulateRecord for every fault.
func TestPrunerRecordBitIdentical(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelSkip, ModelBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := s.NewPruner()
	for _, f := range s.Faults() {
		plain := s.SimulateRecord(f)
		pruned := pr.SimulateRecord(f)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("fault %v: pruned record differs from plain", f)
		}
	}
	if st := pr.Stats(); st.Total() != s.NumFaults() {
		t.Fatalf("prune stats cover %d of %d faults", st.Total(), s.NumFaults())
	}
}

// TestExecutePairShardPrunedBitIdentical: the equivalence-pruned pair
// sweep is bit-identical to the exhaustive snapshot tree across model
// combinations, worker counts, and shardings — and the pruner's
// accounting covers every pair.
func TestExecutePairShardPrunedBitIdentical(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelBitFlip}, {ModelSkip, ModelRegFlip}, {ModelMultiSkip, ModelDataFlip},
	} {
		s, solo, pairs := pairSession(t, models...)
		plain, plainTally := s.ExecutePairShard(pairs, 0, 1, 0, nil)

		pr := s.NewPairPruner(solo)
		pruned, prunedTally := s.ExecutePairShardPruned(pairs, pr, 0, 1, 1, nil)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("%v: pruned pair sweep differs from exhaustive", models)
		}
		if plainTally != prunedTally {
			t.Fatalf("%v: tallies differ: %v vs %v", models, plainTally, prunedTally)
		}
		if st := pr.Stats(); st.Total() != len(pairs) {
			t.Fatalf("%v: prune stats cover %d of %d pairs", models, st.Total(), len(pairs))
		}

		// Worker invariance on a fresh pruner (classes are discovered in
		// a different order under contention; outcomes must not care).
		pr8 := s.NewPairPruner(solo)
		par, parTally := s.ExecutePairShardPruned(pairs, pr8, 0, 1, 8, nil)
		if !reflect.DeepEqual(plain, par) {
			t.Fatalf("%v: 8-worker pruned sweep differs", models)
		}
		if plainTally != parTally {
			t.Fatalf("%v: 8-worker tally differs", models)
		}
		if st := pr8.Stats(); st.Total() != len(pairs) {
			t.Fatalf("%v: 8-worker prune stats cover %d of %d pairs", models, st.Total(), len(pairs))
		}

		// Shard invariance: shards share one pruner (as one campaign
		// execution does) and recombine to the unsharded run.
		const n = 3
		prs := s.NewPairPruner(solo)
		var shards [n][]PairInjection
		for i := 0; i < n; i++ {
			shards[i], _ = s.ExecutePairShardPruned(pairs, prs, i, n, 2, nil)
		}
		var merged []PairInjection
		cursor := [n]int{}
		for j := 0; j < len(plain); j++ {
			w := j % n
			merged = append(merged, shards[w][cursor[w]])
			cursor[w]++
		}
		if !reflect.DeepEqual(merged, plain) {
			t.Fatalf("%v: recombined pruned shards differ from the unsharded run", models)
		}
	}
}

// TestPairPrunerInheritance: the pruned sweep actually inherits — on
// the mini pincheck some skip pairs re-converge to the reference state
// (idempotent or dead skips), so the sweep must report reference- or
// class-equivalence savings, not classify everything by simulation.
func TestPairPrunerInheritance(t *testing.T) {
	s, solo, pairs := pairSession(t, ModelSkip, ModelBitFlip)
	pr := s.NewPairPruner(solo)
	s.ExecutePairShardPruned(pairs, pr, 0, 1, 0, nil)
	st := pr.Stats()
	if st.RefEquiv+st.ClassEquiv == 0 {
		t.Fatalf("no pair inherited an outcome (stats %+v)", st)
	}
	if st.Simulated >= len(pairs) {
		t.Fatalf("pruner simulated all %d pairs (stats %+v)", len(pairs), st)
	}
}

// TestTransparentFirstFastPath: a skipped nop leaves the machine on the
// reference trajectory, so the tree answers its groups from the
// known-outcome table — pairs from the solo sweep, triples only once
// the pair sweep is registered (until then a triple group whose
// continuation is unknown falls back to the dynamic path). Every
// outcome still matches per-tuple simulation.
func TestTransparentFirstFastPath(t *testing.T) {
	src := strings.Replace(miniPincheck, "\tmov rdx, 8\n\tsyscall\n", "\tmov rdx, 8\n\tnop\n\tsyscall\n", 1)
	s, err := NewSession(Campaign{
		Binary: mustAssemble(t, src), Good: goodPin, Bad: badPin, Models: []Model{ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	pairs, triples := EnumeratePairs(solo, 0), EnumerateTriples(solo, 0)
	pr := s.NewPairPruner(solo)
	pairInj, _ := s.ExecutePairShardPruned(pairs, pr, 0, 1, 2, nil)
	if st := pr.Stats(); st.StaticInert == 0 {
		t.Fatalf("no pair took the transparent-first fast path (stats %+v)", st)
	}
	for _, pi := range pairInj {
		if want := s.SimulateFaults(pi.Pair.First, pi.Pair.Second); pi.Outcome != want {
			t.Errorf("%v: pruned tree %v, simulation %v", pi.Pair, pi.Outcome, want)
		}
	}

	bare := s.NewPairPruner(solo)
	unseeded, _ := s.ExecuteTripleShard(triples, bare, 0, 1, 2, nil)
	if st := bare.Stats(); st.StaticInert != 0 {
		t.Errorf("triples inherited unregistered pair outcomes (stats %+v)", st)
	}
	seeded := s.NewPairPruner(solo)
	seeded.SetPairOutcomes(pairInj)
	got, _ := s.ExecuteTripleShard(triples, seeded, 0, 1, 2, nil)
	if st := seeded.Stats(); st.StaticInert == 0 {
		t.Errorf("no triple took the transparent-first fast path (stats %+v)", st)
	}
	for i, tr := range triples {
		want := s.SimulateFaults(tr.First, tr.Second, tr.Third)
		if unseeded[i].Outcome != want || got[i].Outcome != want {
			t.Errorf("%v: unseeded %v, seeded %v, simulation %v", tr, unseeded[i].Outcome, got[i].Outcome, want)
		}
	}
}

// TestPairPrunerForeignFaults: a work list holding faults outside the
// pruner's solo sweep (possible only for hand-built lists) still
// classifies bit-identically — such continuations have no key, so they
// simulate without inheriting — and the accounting covers every pair.
func TestPairPrunerForeignFaults(t *testing.T) {
	s, solo, pairs := pairSession(t, ModelSkip, ModelBitFlip)
	plain, _ := s.ExecutePairShard(pairs, 0, 1, 0, nil)
	pr := s.NewPairPruner(solo[:len(solo)/2])
	got, _ := s.ExecutePairShardPruned(pairs, pr, 0, 1, 2, nil)
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("pruned sweep over a partial solo table differs from the exhaustive sweep")
	}
	if st := pr.Stats(); st.Total() != len(pairs) {
		t.Fatalf("prune stats %+v cover %d of %d pairs", st, st.Total(), len(pairs))
	}
}
