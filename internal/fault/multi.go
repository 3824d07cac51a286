// Multi-fault campaigns: deterministic enumeration and simulation of
// fault pairs (order 2) and triples (order 3). Single-fault-hardened
// binaries routinely fall to a second, coordinated injection
// (Boespflug et al.) — the classic example being a skip of a protected
// instruction paired with a skip of the countermeasure's check — and
// the cubic order-3 space is only feasible with the equivalence
// pruning in prune.go (ARMORY's scaling argument).
//
// One engine serves both orders; the order is data (a tuple's length),
// not a function name. Work lists are pure functions of the order-1
// sweep, and results are bit-identical across worker counts, shard
// decompositions and pruning.
package fault

import (
	"sync"

	"github.com/r2r/reinforce/internal/emu"
)

// maxOrder is the highest fault order the multi-fault engine runs.
const maxOrder = 3

// tuple is the engine's order-parametric form of one multi-fault
// injection: n trace-ordered faults in f[:n]. Its continuation
// f[1:n] is every fault after the first.
type tuple struct {
	n uint8
	f [maxOrder]Fault
}

// item is a multi-fault work item the engine runs: FaultPair or
// FaultTriple.
type item interface{ tuple() tuple }

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

func (p FaultPair) tuple() tuple {
	return tuple{n: 2, f: [maxOrder]Fault{p.First, p.Second}}
}

// PairInjection is the result of simulating one fault pair.
type PairInjection struct {
	Pair    FaultPair
	Outcome Outcome
}

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

func (t FaultTriple) tuple() tuple {
	return tuple{n: 3, f: [maxOrder]Fault{t.First, t.Second, t.Third}}
}

// TripleInjection is the result of simulating one fault triple.
type TripleInjection struct {
	Triple  FaultTriple
	Outcome Outcome
}

// Default enumeration budgets when the caller supplies none. The
// unpruned pair space is quadratic and the triple space cubic in the
// fault list, so the triple default is deliberately modest; campaigns
// that want either wider (or narrower) pass their own cap.
const (
	DefaultMaxPairs   = 4096
	DefaultMaxTriples = 2048
)

// EnumeratePairs builds the deterministic order-2 work list from a
// completed order-1 sweep, pruned and budget-capped (max 0 means
// DefaultMaxPairs); see enumerateTuples for the rules.
func EnumeratePairs(solo []Injection, max int) []FaultPair {
	if max <= 0 {
		max = DefaultMaxPairs
	}
	return enumerateTuples(solo, 2, max, func(fs []Fault) FaultPair {
		return FaultPair{First: fs[0], Second: fs[1]}
	})
}

// EnumerateTriples builds the deterministic order-3 work list under
// the same rules as EnumeratePairs (max 0 means DefaultMaxTriples).
func EnumerateTriples(solo []Injection, max int) []FaultTriple {
	if max <= 0 {
		max = DefaultMaxTriples
	}
	return enumerateTuples(solo, 3, max, func(fs []Fault) FaultTriple {
		return FaultTriple{First: fs[0], Second: fs[1], Third: fs[2]}
	})
}

// enumerateTuples is the one enumeration walk behind EnumeratePairs and
// EnumerateTriples:
//
//   - every component is drawn only from faults whose solo outcome was
//     detected or ignored — a fault that already succeeds alone needs
//     no partner, and a fault that crashes alone leaves no program
//     state for a later fault to steer;
//   - each fault must strike strictly later in the trace than the one
//     before it, which both orders the injection physically and
//     removes the symmetric duplicates;
//   - the walk visits candidates in campaign order (first fault
//     outermost, last innermost) and stops at max tuples, so the same
//     solo sweep always yields the same work list.
func enumerateTuples[T any](solo []Injection, order, max int, mk func([]Fault) T) []T {
	var cand []Fault
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			cand = append(cand, inj.Fault)
		}
	}
	var out []T
	var fs [maxOrder]Fault
	var walk func(depth int) bool
	walk = func(depth int) bool {
		for _, c := range cand {
			if depth > 0 && c.TraceIndex <= fs[depth-1].TraceIndex {
				continue
			}
			fs[depth] = c
			if depth+1 < order {
				if !walk(depth + 1) {
					return false
				}
				continue
			}
			out = append(out, mk(fs[:order]))
			if len(out) >= max {
				return false
			}
		}
		return true
	}
	walk(0)
	return out
}

// SimulateFaults runs the faults together in one injection from the
// copy-on-write snapshot nearest the earliest of them and classifies
// the outcome. Unlike Simulate it applies no static screen: the
// bit-flip decode pre-screen relies on the reference run reaching the
// fault site, which another fault of the tuple may prevent. Safe for
// concurrent use.
func (s *Session) SimulateFaults(fs ...Fault) Outcome {
	first := fs[0].TraceIndex
	for _, f := range fs[1:] {
		first = min(first, f.TraceIndex)
	}
	return s.runFrom(s.rungFor(uint64(first)), fs...)
}

// runFrom resumes a snapshot with the faults' hooks, runs it to the
// end and classifies the run.
func (s *Session) runFrom(snap *emu.Snapshot, fs ...Fault) Outcome {
	m := snap.Resume(s.injectionConfig(fs...))
	res, err := m.Run()
	o := classify(res, err, s.good)
	m.Release()
	return o
}

// ExecutePairShard simulates the pairs of shard shardIndex (of
// shardCount round-robin shards) on a worker pool, through the
// exhaustive first-fault snapshot tree (see runTree). Results land at
// fixed positions and are bit-identical to the per-pair (and cold)
// path regardless of worker count or grouping.
func (s *Session) ExecutePairShard(pairs []FaultPair, shardIndex, shardCount, workers int, progress func(total int)) ([]PairInjection, Tally) {
	return s.ExecutePairShardPruned(pairs, nil, shardIndex, shardCount, workers, progress)
}

// ExecutePairShardPruned is ExecutePairShard with the state-hash
// equivalence pruner spliced into the snapshot tree (nil runs it
// exhaustively). Results are bit-identical to ExecutePairShard:
// inheritance only substitutes outcomes of provably identical
// continuations. Only the cost and the PruneStats change.
func (s *Session) ExecutePairShardPruned(pairs []FaultPair, pr *PairPruner, shardIndex, shardCount, workers int, progress func(total int)) ([]PairInjection, Tally) {
	sel, outcomes, tally := runTree(s, pairs, pr, shardIndex, shardCount, workers, progress)
	out := make([]PairInjection, len(sel))
	for i, p := range sel {
		out[i] = PairInjection{Pair: p, Outcome: outcomes[i]}
	}
	return out, tally
}

// ExecuteTripleShard simulates the triples of shard shardIndex (of
// shardCount round-robin shards) on the snapshot tree, pruned by pr —
// campaigns always pass one, since order 3 is only feasible pruned
// (nil runs the tree exhaustively). Results are bit-identical to
// per-triple simulation regardless of worker count, grouping, or what
// the pruner inherited.
func (s *Session) ExecuteTripleShard(triples []FaultTriple, pr *PairPruner, shardIndex, shardCount, workers int, progress func(total int)) ([]TripleInjection, Tally) {
	sel, outcomes, tally := runTree(s, triples, pr, shardIndex, shardCount, workers, progress)
	out := make([]TripleInjection, len(sel))
	for i, t := range sel {
		out[i] = TripleInjection{Triple: t, Outcome: outcomes[i]}
	}
	return out, tally
}

// group is one node of the first-fault snapshot tree: every selected
// tuple sharing one first fault whose second fault strikes at or after
// the first's effect horizon.
type group struct {
	first Fault
	end   uint64 // snapshot step: the first fault's effect horizon
	idx   []int  // positions in the shard-local selection
}

// runTree is the multi-fault engine's one shard executor. Tuples are
// grouped into a first-fault snapshot tree: each distinct first fault
// replays its prefix once, is snapshotted at its effect horizon, and
// serves every continuation from a copy-on-write fork — O(distinct
// first faults) prefix replays instead of O(tuples). Tuples outside the
// tree (first fault without an EffectHorizon, or a second fault
// striking inside the first's effect window) take the per-tuple
// SimulateFaults path. A group is one work unit, claimed in dynamically
// sized chunks from the pool like runShard, so chunk boundaries never
// split a tree. Outcomes land at fixed positions.
func runTree[T item](s *Session, items []T, pr *PairPruner, shardIndex, shardCount, workers int, progress func(total int)) ([]T, []Outcome, Tally) {
	sel := ShardSelect(items, shardIndex, shardCount)
	outcomes := make([]Outcome, len(sel))
	if len(sel) == 0 {
		return sel, outcomes, Tally{}
	}

	// Partition into snapshot-tree groups (first-seen order) and loose
	// per-tuple work.
	groupOf := make(map[Fault]*group)
	var groups []*group
	var loose []int
	for i, it := range sel {
		t := it.tuple()
		end, ok := effectEnd(t.f[0])
		if !ok || uint64(t.f[1].TraceIndex) < end {
			loose = append(loose, i)
			continue
		}
		g, seen := groupOf[t.f[0]]
		if !seen {
			g = &group{first: t.f[0], end: end}
			groupOf[t.f[0]] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}

	var mu sync.Mutex
	var tally Tally
	s.executePool(workers).Execute(len(groups)+len(loose), func(lo, hi int) {
		var local Tally
		put := func(i int, o Outcome) {
			outcomes[i] = o
			local[o]++
			if progress != nil {
				progress(len(sel))
			}
		}
		for u := lo; u < hi; u++ {
			if u < len(groups) {
				runGroup(s, pr, groups[u], sel, put)
				continue
			}
			i := loose[u-len(groups)]
			t := sel[i].tuple()
			if pr != nil {
				pr.sim.Add(1)
			}
			put(i, s.SimulateFaults(t.f[:t.n]...))
		}
		mu.Lock()
		tally.Add(local)
		mu.Unlock()
	})
	return sel, outcomes, tally
}

// runGroup executes one snapshot-tree node: resume the nearest golden
// checkpoint with the first fault's hooks, run until those hooks are
// inert, snapshot the post-first-fault machine (copy-on-write), and
// fork that snapshot once per continuation. Results are bit-identical
// to SimulateFaults (and SimulateCold): before the snapshot step no
// later fault's hook could have fired (eligibility requires the second
// fault to strike at or after the horizon, and tuples are trace
// ordered), and after it the first fault's hooks are inert by its
// declared EffectHorizon.
//
// With a nil pruner that is the whole node. With a pruner, each tuple
// takes the first of these that applies:
//
//  1. transparent first window: the machine never leaves the reference
//     trajectory, so every continuation runs as if injected alone —
//     answered from the known-outcome table when it has them all;
//  2. the horizon digest: the state is digested once per group;
//  3. reference-equal state: the first fault's effects died out, so
//     the tuple inherits its continuation's known outcome (a pair its
//     second fault's solo outcome, a triple its remaining pair's);
//  4. the class cache: a continuation already run from an equal state;
//  5. a fork simulation, recorded into the class.
func runGroup[T item](s *Session, pr *PairPruner, g *group, sel []T, put func(i int, o Outcome)) {
	if pr != nil && s.transparentFirst(g.first) {
		outs := make([]Outcome, len(g.idx))
		known := true
		for n, i := range g.idx {
			t := sel[i].tuple()
			if outs[n], known = pr.knownOutcome(t.f[1:t.n]); !known {
				break
			}
		}
		if known {
			for n, i := range g.idx {
				put(i, outs[n])
			}
			pr.inert.Add(int64(len(g.idx)))
			return
		}
	}
	m := s.rungFor(uint64(g.first.TraceIndex)).Resume(s.injectionConfig(g.first))
	res, done, err := m.RunUntil(g.end)
	if done {
		// The first-fault run ended (exit, crash, or step limit) before
		// any eligible later fault's step — every tuple in the group
		// classifies exactly like the solo first-fault run. One run
		// classified the whole group, so a pruner counts it simulated.
		o := classify(res, err, s.good)
		if pr != nil {
			pr.sim.Add(int64(len(g.idx)))
		}
		for _, i := range g.idx {
			put(i, o)
		}
		m.Release()
		return
	}
	var digest [32]byte
	refEqual := false
	if pr != nil {
		digest = m.StateDigest()
		refEqual = digest == pr.refDigestAt(g.end)
	}

	// The snapshot and class materialize lazily: a fully
	// reference-equal group never snapshots or touches the class map.
	var cl *equivClass
	var snap *emu.Snapshot
	for _, i := range g.idx {
		t := sel[i].tuple()
		rest := t.f[1:t.n]
		k, keyed := pr.keyOf(rest)
		if refEqual && keyed {
			if o, ok := pr.known[k]; ok {
				pr.refEquiv.Add(1)
				put(i, o)
				continue
			}
		}
		if snap == nil {
			snap = m.Snapshot()
			// Re-donate the golden run's decode cache and micro-op
			// program; the seeds ignore them when the first fault
			// mutated code (bit flips).
			snap.SeedDecodeCache(s.codeCache)
			snap.SeedProgram(s.prog)
			if pr != nil {
				cl = pr.classFor(g.end, digest)
			}
		}
		if !keyed {
			if pr != nil {
				pr.sim.Add(1)
			}
			put(i, s.runFrom(snap, rest...))
			continue
		}
		put(i, pr.classOutcome(cl, k, func() Outcome {
			return s.runFrom(snap, rest...)
		}))
	}
	// No-op when a snapshot froze m; recycles the buffers otherwise
	// (every tuple inherited its continuation's known outcome).
	m.Release()
}
