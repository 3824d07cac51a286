// Order-2 multi-fault campaigns: deterministic enumeration and
// simulation of fault *pairs*. Single-fault-hardened binaries routinely
// fall to a second, coordinated injection (Boespflug et al.) — the
// classic example being a skip of a protected instruction paired with a
// skip of the countermeasure's check. Pair campaigns make that attack
// class simulable while keeping the engine's determinism guarantees:
// the pair list is a pure function of the order-1 sweep, and pair
// results are bit-identical across worker counts and shard
// decompositions.
package fault

import (
	"sync"

	"github.com/r2r/reinforce/internal/emu"
)

// FaultPair is an ordered pair of faults injected into one run; Second
// always strikes strictly later in the trace than First.
type FaultPair struct {
	First  Fault
	Second Fault
}

// String renders the pair for reports.
func (p FaultPair) String() string {
	return p.First.String() + " + " + p.Second.String()
}

// PairInjection is the result of simulating one fault pair.
type PairInjection struct {
	Pair    FaultPair
	Outcome Outcome
}

// DefaultMaxPairs caps order-2 enumeration when the caller supplies no
// budget. The unpruned pair space is quadratic in the fault list;
// campaigns that want it wider (or narrower) pass their own cap.
const DefaultMaxPairs = 4096

// EnumeratePairs builds the deterministic order-2 work list from a
// completed order-1 sweep, pruned and budget-capped:
//
//   - both components are drawn only from faults whose solo outcome was
//     detected or ignored — a fault that already succeeds alone needs no
//     partner, and a fault that crashes alone leaves no program state
//     for a second fault to steer;
//   - the second fault must strike strictly later in the trace than the
//     first, which both orders the injection physically and halves the
//     symmetric pair space;
//   - enumeration walks candidates in campaign order (first fault outer,
//     second inner) and stops at max pairs (0 means DefaultMaxPairs),
//     so the same solo sweep always yields the same work list.
func EnumeratePairs(solo []Injection, max int) []FaultPair {
	if max <= 0 {
		max = DefaultMaxPairs
	}
	var cand []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			cand = append(cand, inj.Fault)
		}
	}
	var out []FaultPair
	for i := range cand {
		for j := range cand {
			if cand[j].TraceIndex <= cand[i].TraceIndex {
				continue
			}
			out = append(out, FaultPair{First: cand[i], Second: cand[j]})
			if len(out) >= max {
				return out
			}
		}
	}
	return out
}

// pairConfig composes both faults' emulator hooks onto one run. The
// hooks chain (Config.AddFetchHook/AddStepHook), and each keys off the
// absolute step counter, so the two injections are independent: the
// second fires at its step index even when the first has already sent
// execution down a different path.
func (s *Session) pairConfig(p FaultPair) emu.Config {
	cfg := emu.Config{StepLimit: s.c.InjectionStepLimit, SingleStep: s.c.SingleStep}
	if spec := SpecOf(p.First.Model); spec != nil {
		spec.Hooks(p.First, &cfg)
	}
	if spec := SpecOf(p.Second.Model); spec != nil {
		spec.Hooks(p.Second, &cfg)
	}
	return cfg
}

// SimulatePair runs one order-2 injection from the copy-on-write
// snapshot nearest the first fault and classifies its outcome. The
// bit-flip decode pre-screen does not apply here: it relies on the
// reference run reaching the fault site, which the other fault of the
// pair may prevent. Safe for concurrent use.
func (s *Session) SimulatePair(p FaultPair) Outcome {
	first := p.First.TraceIndex
	if p.Second.TraceIndex < first {
		first = p.Second.TraceIndex
	}
	m := s.rungFor(uint64(first)).Resume(s.pairConfig(p))
	res, err := m.Run()
	o := classify(res, err, s.good)
	m.Release()
	return o
}

// SimulatePairCold replays an order-2 injection from a freshly
// initialized machine — the reference semantics the snapshot path must
// match bit for bit. Tests cross-validate the two paths; the engine
// never uses it.
func (s *Session) SimulatePairCold(p FaultPair) Outcome {
	cfg := s.pairConfig(p)
	cfg.Stdin = s.c.Bad
	m := emu.New(s.c.Binary, cfg)
	res, err := m.Run()
	o := classify(res, err, s.good)
	m.Release()
	return o
}

// pairGroup is one node of the first-fault snapshot tree: every
// selected pair sharing one first fault whose second fault strikes at
// or after the first's effect horizon. The group costs one prefix
// resume + one run to the horizon, then one cheap snapshot fork per
// second fault.
type pairGroup struct {
	first Fault
	end   uint64 // snapshot step: the first fault's effect horizon
	idx   []int  // positions in the shard-local pair selection
}

// runPairGroup executes one snapshot-tree node: resume the nearest
// golden checkpoint with the first fault's hooks, run until those hooks
// are inert, snapshot the post-first-fault machine (copy-on-write), and
// fork that snapshot once per second fault. Results are bit-identical
// to SimulatePair (and SimulatePairCold): before the snapshot step no
// second-fault hook could have fired (eligibility requires
// Second.TraceIndex >= end), and after it the first fault's hooks are
// inert by its declared EffectHorizon.
func (s *Session) runPairGroup(g *pairGroup, sel []FaultPair, outcomes []Outcome, tally *Tally, tick func()) {
	m := s.rungFor(uint64(g.first.TraceIndex)).Resume(s.injectionConfig(g.first))
	res, done, err := m.RunUntil(g.end)
	if done {
		// The first-fault run ended (exit, crash, or step limit) before
		// any eligible second fault's step — every pair in the group
		// classifies exactly like the solo first-fault run.
		o := classify(res, err, s.good)
		for _, i := range g.idx {
			outcomes[i] = o
			tally[o]++
			tick()
		}
		m.Release()
		return
	}
	snap := m.Snapshot()
	// Re-donate the golden run's decode cache and micro-op program;
	// the seeds ignore them when the first fault mutated code (bit
	// flips).
	snap.SeedDecodeCache(s.codeCache)
	snap.SeedProgram(s.prog)
	for _, i := range g.idx {
		cfg := emu.Config{StepLimit: s.c.InjectionStepLimit, SingleStep: s.c.SingleStep}
		second := sel[i].Second
		if spec := SpecOf(second.Model); spec != nil {
			spec.Hooks(second, &cfg)
		}
		m2 := snap.Resume(cfg)
		res2, err2 := m2.Run()
		o := classify(res2, err2, s.good)
		outcomes[i] = o
		tally[o]++
		tick()
		m2.Release()
	}
}

// ExecutePairShard simulates the pairs of shard shardIndex (of
// shardCount round-robin shards) on a worker pool. Pairs are grouped
// into a first-fault snapshot tree: each distinct first fault replays
// its prefix once, is snapshotted after its effect horizon, and serves
// every second fault from a copy-on-write fork — O(distinct first
// faults) prefix replays instead of O(pairs). Pairs outside the tree
// (first fault without an EffectHorizon, or a second fault striking
// inside the first's effect window) take the per-pair SimulatePair
// path. Results land at fixed positions and are bit-identical to the
// per-pair (and cold) path regardless of worker count or grouping.
func (s *Session) ExecutePairShard(pairs []FaultPair, shardIndex, shardCount, workers int, progress func(total int)) ([]PairInjection, Tally) {
	return s.executePairShard(pairs, nil, shardIndex, shardCount, workers, progress)
}

// executePairShard is the shared snapshot-tree core behind
// ExecutePairShard (pr == nil) and ExecutePairShardPruned (pr != nil).
// The pruner only changes how a group's forks are classified — by
// digest-based inheritance where sound, simulation otherwise — never
// which pairs run or what their outcomes are.
func (s *Session) executePairShard(pairs []FaultPair, pr *PairPruner, shardIndex, shardCount, workers int, progress func(total int)) ([]PairInjection, Tally) {
	sel := ShardSelect(pairs, shardIndex, shardCount)
	outcomes := make([]Outcome, len(sel))
	if len(sel) == 0 {
		return make([]PairInjection, 0), Tally{}
	}

	// Partition into snapshot-tree groups (first-seen order) and loose
	// per-pair work.
	groupOf := make(map[Fault]*pairGroup)
	var groups []*pairGroup
	var loose []int
	for i, p := range sel {
		end, ok := effectEnd(p.First)
		if !ok || uint64(p.Second.TraceIndex) < end {
			loose = append(loose, i)
			continue
		}
		g, seen := groupOf[p.First]
		if !seen {
			g = &pairGroup{first: p.First, end: end}
			groupOf[p.First] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}

	// Work units: one per group, one per loose pair; claimed in
	// dynamically sized chunks from the pool like runShard. A group is
	// one unit (its snapshot tree shares one resumed prefix), so chunk
	// boundaries never split a tree.
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
				if pr != nil {
					s.runPairGroupPruned(pr, groups[u], sel, outcomes, &local, tick)
				} else {
					s.runPairGroup(groups[u], sel, outcomes, &local, tick)
				}
				continue
			}
			i := loose[u-len(groups)]
			o := s.SimulatePair(sel[i])
			if pr != nil {
				pr.sim.Add(1)
			}
			outcomes[i] = o
			local[o]++
			tick()
		}
		mu.Lock()
		tally.Add(local)
		mu.Unlock()
	})
	out := make([]PairInjection, len(sel))
	for i, p := range sel {
		out[i] = PairInjection{Pair: p, Outcome: outcomes[i]}
	}
	return out, tally
}
