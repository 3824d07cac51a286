// Order-3 multi-fault campaigns: deterministic enumeration and
// simulation of fault *triples*. The cubic space makes exhaustive
// order-3 sweeps infeasible without the equivalence pruning in
// prune.go (ARMORY's scaling argument); the engine therefore only
// exposes budget-capped enumeration and runs the triple tree through a
// PairPruner. Determinism guarantees match the pair engine: the triple
// list is a pure function of the solo sweep, and results are
// bit-identical across worker counts and shard decompositions.
package fault

import (
	"sync"

	"github.com/r2r/reinforce/internal/emu"
)

// FaultTriple is an ordered triple of faults injected into one run;
// trace order is strictly First < Second < Third.
type FaultTriple struct {
	First  Fault
	Second Fault
	Third  Fault
}

// String renders the triple for reports.
func (t FaultTriple) String() string {
	return t.First.String() + " + " + t.Second.String() + " + " + t.Third.String()
}

// Rest is the triple's continuation after its first fault.
func (t FaultTriple) Rest() FaultPair {
	return FaultPair{First: t.Second, Second: t.Third}
}

// TripleInjection is the result of simulating one fault triple.
type TripleInjection struct {
	Triple  FaultTriple
	Outcome Outcome
}

// DefaultMaxTriples caps order-3 enumeration when the caller supplies
// no budget. The unpruned triple space is cubic in the fault list, so
// the default budget is deliberately modest; experiments that want it
// wider pass their own cap.
const DefaultMaxTriples = 2048

// EnumerateTriples builds the deterministic order-3 work list from a
// completed order-1 sweep under the same rules as EnumeratePairs:
// components are drawn from detected/ignored solo faults, trace
// indices are strictly increasing across the triple, enumeration walks
// candidates in campaign order (first outer, third inner), and stops
// at max triples (0 means DefaultMaxTriples).
func EnumerateTriples(solo []Injection, max int) []FaultTriple {
	if max <= 0 {
		max = DefaultMaxTriples
	}
	var cand []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			cand = append(cand, inj.Fault)
		}
	}
	var out []FaultTriple
	for i := range cand {
		for j := range cand {
			if cand[j].TraceIndex <= cand[i].TraceIndex {
				continue
			}
			for k := range cand {
				if cand[k].TraceIndex <= cand[j].TraceIndex {
					continue
				}
				out = append(out, FaultTriple{First: cand[i], Second: cand[j], Third: cand[k]})
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// tripleConfig composes all three faults' emulator hooks onto one run;
// like pairConfig, each hook keys off the absolute step counter, so
// the injections are independent.
func (s *Session) tripleConfig(t FaultTriple) emu.Config {
	cfg := emu.Config{StepLimit: s.c.InjectionStepLimit, SingleStep: s.c.SingleStep}
	for _, f := range [3]Fault{t.First, t.Second, t.Third} {
		if spec := SpecOf(f.Model); spec != nil {
			spec.Hooks(f, &cfg)
		}
	}
	return cfg
}

// SimulateTriple runs one order-3 injection from the copy-on-write
// snapshot nearest its earliest fault and classifies the outcome.
// Safe for concurrent use.
func (s *Session) SimulateTriple(t FaultTriple) Outcome {
	first := t.First.TraceIndex
	if t.Second.TraceIndex < first {
		first = t.Second.TraceIndex
	}
	if t.Third.TraceIndex < first {
		first = t.Third.TraceIndex
	}
	m := s.rungFor(uint64(first)).Resume(s.tripleConfig(t))
	res, err := m.Run()
	o := classify(res, err, s.good)
	m.Release()
	return o
}

// SimulateTripleCold replays an order-3 injection from a freshly
// initialized machine — the reference semantics the snapshot and
// pruned paths must match bit for bit. Tests cross-validate; the
// engine never uses it.
func (s *Session) SimulateTripleCold(t FaultTriple) Outcome {
	cfg := s.tripleConfig(t)
	cfg.Stdin = s.c.Bad
	m := emu.New(s.c.Binary, cfg)
	res, err := m.Run()
	o := classify(res, err, s.good)
	m.Release()
	return o
}

// tripleGroup is one node of the order-3 snapshot tree: every selected
// triple sharing one first fault whose second fault strikes at or
// after the first's effect horizon.
type tripleGroup struct {
	first Fault
	end   uint64
	idx   []int
}

// runTripleGroup executes one order-3 snapshot-tree node through the
// pruner: resume with the first fault's hooks, run to its effect
// horizon, digest. A reference-equal state collapses each triple to
// its remaining pair — taken from a registered pair sweep when the
// pair was enumerated there, otherwise class-cached like any other
// continuation. Non-reference states share continuation outcomes per
// equivalence class. The fork simulation composes the second and third
// faults' hooks onto a snapshot resume, which matches SimulateTriple
// bit for bit: before the snapshot step neither later hook could have
// fired (eligibility requires Second.TraceIndex >= end and the triple
// is trace-ordered), and after it the first fault's hooks are inert.
func (s *Session) runTripleGroup(pr *PairPruner, g *tripleGroup, sel []FaultTriple, outcomes []Outcome, tally *Tally, tick func()) {
	// StaticInert fast path: a fully transparent first window leaves
	// the machine exactly on the reference trajectory, so each triple
	// runs like its remaining pair alone — known when a pair sweep was
	// registered. Any missing pair outcome falls back to the full
	// dynamic path for the whole group.
	if s.transparentFirst(g.first) {
		rests := make([]Outcome, len(g.idx))
		known := true
		for n, i := range g.idx {
			o, ok := pr.pairOutcome(sel[i].Rest())
			if !ok {
				known = false
				break
			}
			rests[n] = o
		}
		if known {
			for n, i := range g.idx {
				o := rests[n]
				outcomes[i] = o
				tally[o]++
				tick()
			}
			pr.inert.Add(int64(len(g.idx)))
			return
		}
	}
	m := s.rungFor(uint64(g.first.TraceIndex)).Resume(s.injectionConfig(g.first))
	res, done, err := m.RunUntil(g.end)
	if done {
		o := classify(res, err, s.good)
		pr.sim.Add(int64(len(g.idx)))
		for _, i := range g.idx {
			outcomes[i] = o
			tally[o]++
			tick()
		}
		m.Release()
		return
	}
	digest := m.StateDigest()
	refEqual := digest == pr.refDigestAt(g.end)

	var cl *equivClass
	var snap *emu.Snapshot
	fork := func(rest FaultPair) func() Outcome {
		return func() Outcome {
			cfg := emu.Config{StepLimit: s.c.InjectionStepLimit, SingleStep: s.c.SingleStep}
			for _, f := range [2]Fault{rest.First, rest.Second} {
				if spec := SpecOf(f.Model); spec != nil {
					spec.Hooks(f, &cfg)
				}
			}
			m2 := snap.Resume(cfg)
			res2, err2 := m2.Run()
			o := classify(res2, err2, s.good)
			m2.Release()
			return o
		}
	}
	for _, i := range g.idx {
		rest := sel[i].Rest()
		var o Outcome
		if po, ok := pr.pairOutcome(rest); refEqual && ok {
			// First fault's effects died out: the triple runs exactly
			// like its remaining pair, already swept at order 2.
			o = po
			pr.refEquiv.Add(1)
		} else {
			if snap == nil {
				cl = pr.classFor(g.end, digest)
				snap = m.Snapshot()
				snap.SeedDecodeCache(s.codeCache)
				snap.SeedProgram(s.prog)
			}
			o = pr.restOutcome(cl, rest, fork(rest))
		}
		outcomes[i] = o
		tally[o]++
		tick()
	}
	// No-op when a snapshot froze m; recycles the buffers otherwise
	// (every triple inherited its remaining pair's outcome).
	m.Release()
}

// ExecuteTripleShard simulates the triples of shard shardIndex (of
// shardCount round-robin shards) on a worker pool, always through the
// state-hash equivalence pruner — order 3 is only feasible pruned.
// Grouping mirrors ExecutePairShard: triples whose second fault
// strikes at or after the first's effect horizon share a first-fault
// snapshot-tree node; the rest take the per-triple SimulateTriple
// path. Results land at fixed positions and are bit-identical to
// SimulateTriple regardless of worker count, grouping, or what the
// pruner inherited.
func (s *Session) ExecuteTripleShard(triples []FaultTriple, pr *PairPruner, shardIndex, shardCount, workers int, progress func(total int)) ([]TripleInjection, Tally) {
	sel := ShardSelect(triples, shardIndex, shardCount)
	outcomes := make([]Outcome, len(sel))
	if len(sel) == 0 {
		return make([]TripleInjection, 0), Tally{}
	}

	groupOf := make(map[Fault]*tripleGroup)
	var groups []*tripleGroup
	var loose []int
	for i, t := range sel {
		end, ok := effectEnd(t.First)
		if !ok || uint64(t.Second.TraceIndex) < end {
			loose = append(loose, i)
			continue
		}
		g, seen := groupOf[t.First]
		if !seen {
			g = &tripleGroup{first: t.First, end: end}
			groupOf[t.First] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}

	units := len(groups) + len(loose)
	tick := func() {
		if progress != nil {
			progress(len(sel))
		}
	}
	var mu sync.Mutex
	var tally Tally
	s.executePool(workers).Execute(units, func(lo, hi int) {
		var local Tally
		for u := lo; u < hi; u++ {
			if u < len(groups) {
				s.runTripleGroup(pr, groups[u], sel, outcomes, &local, tick)
				continue
			}
			i := loose[u-len(groups)]
			o := s.SimulateTriple(sel[i])
			pr.sim.Add(1)
			outcomes[i] = o
			local[o]++
			tick()
		}
		mu.Lock()
		tally.Add(local)
		mu.Unlock()
	})
	out := make([]TripleInjection, len(sel))
	for i, t := range sel {
		out[i] = TripleInjection{Triple: t, Outcome: outcomes[i]}
	}
	return out, tally
}
