// Fault-equivalence-class pruning: sound pre-campaign reductions that
// classify injections without simulating them, while keeping every
// report bit-identical to the exhaustive sweep (the contract the
// campaign package's differential harness enforces case by case).
//
// Two reductions, after Boespflug et al.'s redundancy analysis and
// ARMORY's observation that exhaustive fault simulation only scales
// with exactly this kind of pruning:
//
//  1. Static reachability over the recorded reference trace (Pruner).
//     A fault whose trace index lies at or beyond the injection step
//     budget strikes after the budget cuts the run: the un-faulted
//     prefix alone exhausts the budget, and the reference run proves
//     that prefix does not crash earlier, so the outcome is a
//     step-limit crash without simulation. Likewise, a bit flip that
//     corrupts its instruction's encoding beyond decodability crashes
//     at the fetch the reference trace proves is reached — the decode
//     pre-screen, lifted out of Simulate and accounted for here.
//
//  2. State-hash equivalence classing on forked first-fault snapshots
//     (PairPruner). The order-2/3 snapshot tree already runs each
//     first fault once to its effect horizon; digesting the machine
//     state there (emu.Machine.StateDigest) detects two collapses:
//     a digest equal to the reference run's at the same step means the
//     first fault's effects died out, so every pair inherits its
//     second fault's solo outcome (and every triple its remaining
//     pair's outcome); and two groups with equal digests are the same
//     machine, so continuation outcomes computed once per equivalence
//     class are inherited instead of re-simulated.
//
// Soundness rests on the emulator's determinism: equal complete state
// plus equal run configuration (hooks keyed off the absolute step
// counter, the same absolute step limit) is equal continuation.
package fault

import (
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/emu"
)

// PruneStats accounts for how a pruned campaign's injections were
// classified. The counts are deterministic for a fixed campaign and
// shard: class simulation holds the class lock, so exactly one group
// pays for each distinct (state, continuation) no matter how workers
// interleave. Like CacheStats, the split is execution accounting, not
// part of the report — pruned and exhaustive reports are bit-identical.
type PruneStats struct {
	StaticBudget int `json:"static_budget"` // classified by the step-budget gate
	StaticDecode int `json:"static_decode"` // classified by the decode pre-screen
	StaticInert  int `json:"static_inert"`  // classified by the inert-window dataflow screen
	RefEquiv     int `json:"ref_equiv"`     // inherited: state re-converged to the reference run
	ClassEquiv   int `json:"class_equiv"`   // inherited from an equivalence-class representative
	Simulated    int `json:"simulated"`     // actually simulated
}

// Pruned returns how many injections were classified without their own
// simulation.
func (s PruneStats) Pruned() int {
	return s.StaticBudget + s.StaticDecode + s.StaticInert + s.RefEquiv + s.ClassEquiv
}

// Total returns the number of injections accounted for.
func (s PruneStats) Total() int { return s.Pruned() + s.Simulated }

// Add accumulates another stats record.
func (s *PruneStats) Add(o PruneStats) {
	s.StaticBudget += o.StaticBudget
	s.StaticDecode += o.StaticDecode
	s.StaticInert += o.StaticInert
	s.RefEquiv += o.RefEquiv
	s.ClassEquiv += o.ClassEquiv
	s.Simulated += o.Simulated
}

// Pruner is the static (order-1) pruning pass over one session: a
// drop-in replacement for Session.Simulate / Session.SimulateRecord
// that answers statically classifiable faults without simulation and
// counts what it did. Safe for concurrent use; plug it into
// ExecuteShardSim like any simulation function.
type Pruner struct {
	s                          *Session
	budget, decode, inert, sim atomic.Int64
}

// NewPruner builds the static pruning pass for this session.
func (s *Session) NewPruner() *Pruner { return &Pruner{s: s} }

// Simulate classifies one fault, statically when sound: a trace index
// at or beyond the injection step budget is a step-limit crash (the
// reference run proves the un-faulted prefix reaches the budget
// without crashing first), an undecodable bit flip is a decode crash
// (see Session.decodePreScreen), and a skip whose window the dataflow
// engine proves inert keeps the reference outcome (see inert.go). The
// budget gate stays first: a fault both beyond budget and inert must
// still answer the crash the exhaustive sweep observes. Everything
// else simulates.
func (p *Pruner) Simulate(f Fault) Outcome {
	if uint64(f.TraceIndex) >= p.s.c.InjectionStepLimit {
		p.budget.Add(1)
		return OutcomeCrash
	}
	if p.s.decodePreScreen(f) {
		p.decode.Add(1)
		return OutcomeCrash
	}
	if o, ok := p.s.inertOutcome(f); ok {
		p.inert.Add(1)
		return o
	}
	p.sim.Add(1)
	return p.s.simulateDynamic(f)
}

// SimulateRecord is Simulate for the evidence-recording path. Only the
// decode pre-screen is answered statically here: a budget-gated crash
// record would carry no simulated code-page footprint, and fabricating
// one that footprint-gated memo reuse could later trust must stay
// byte-identical to SimulateRecord's — simulating keeps that true by
// construction, and a budget small enough to gate also makes the
// simulation it forces cheap (the run is cut at that same budget).
// Inert-window classification is skipped for the same reason: its
// answer rests on whole-binary dataflow facts, not a recordable page
// footprint.
func (p *Pruner) SimulateRecord(f Fault) SimRecord {
	if p.s.decodePreScreen(f) {
		p.decode.Add(1)
		return p.s.preScreenRecord(f)
	}
	p.sim.Add(1)
	return p.s.simulateRecordDynamic(f)
}

// Stats snapshots the pass's accounting.
func (p *Pruner) Stats() PruneStats {
	return PruneStats{
		StaticBudget: int(p.budget.Load()),
		StaticDecode: int(p.decode.Load()),
		StaticInert:  int(p.inert.Load()),
		Simulated:    int(p.sim.Load()),
	}
}

// classKey identifies a state-equivalence class: the absolute step a
// first-fault group was digested at, plus the machine-state digest.
// Groups with equal keys are the same machine about to run the same
// continuation.
type classKey struct {
	step   uint64
	digest [32]byte
}

// equivClass caches the continuation outcomes computed from one
// machine state: per second fault (order-2 groups) and per remaining
// pair (order-3 groups). The lock is held across the simulation that
// fills a missing entry, so each distinct continuation is simulated
// exactly once — which keeps PruneStats deterministic (set-union
// accounting) as well as cheap.
type equivClass struct {
	mu      sync.Mutex
	seconds map[Fault]Outcome
	rests   map[FaultPair]Outcome
}

// refDigest lazily computes one reference-state digest.
type refDigest struct {
	once sync.Once
	d    [32]byte
}

// PairPruner is the state-hash equivalence layer of one pruned
// multi-fault sweep. It is built per execution from the completed solo
// sweep and threaded through the snapshot tree
// (ExecutePairShardPruned, ExecuteTripleShard): each first-fault group
// is digested at its effect horizon and either collapses to known solo
// or pair outcomes (reference-equal state) or shares continuation
// outcomes with every group in its equivalence class. Safe for
// concurrent use by the engine's worker pools.
//
// Sharing is per-pruner: two shards of one campaign executed with
// separate pruners still produce bit-identical reports (inheritance
// only ever substitutes provably equal outcomes), they just discover
// equivalences independently, so their PruneStats may split
// differently between ClassEquiv and Simulated.
type PairPruner struct {
	s     *Session
	solo  map[Fault]Outcome
	pairs map[FaultPair]Outcome // optional, for order-3 reference-equal inheritance

	mu      sync.Mutex
	refs    map[uint64]*refDigest
	classes map[classKey]*equivClass

	refEquiv, classEquiv, inert, sim atomic.Int64
}

// NewPairPruner builds the equivalence layer over a completed solo
// sweep (the same injections the pair list was enumerated from).
func (s *Session) NewPairPruner(solo []Injection) *PairPruner {
	pr := &PairPruner{
		s:       s,
		solo:    make(map[Fault]Outcome, len(solo)),
		refs:    make(map[uint64]*refDigest),
		classes: make(map[classKey]*equivClass),
	}
	for _, inj := range solo {
		pr.solo[inj.Fault] = inj.Outcome
	}
	return pr
}

// SetPairOutcomes registers a completed pair sweep's outcomes, so an
// order-3 sweep on the same pruner can collapse reference-equal triple
// groups to the known outcome of their remaining pair. The slice is
// read once; later calls replace earlier ones.
func (pr *PairPruner) SetPairOutcomes(pairs []PairInjection) {
	m := make(map[FaultPair]Outcome, len(pairs))
	for _, pi := range pairs {
		m[pi.Pair] = pi.Outcome
	}
	pr.mu.Lock()
	pr.pairs = m
	pr.mu.Unlock()
}

// pairOutcome looks up a registered pair outcome.
func (pr *PairPruner) pairOutcome(p FaultPair) (Outcome, bool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	o, ok := pr.pairs[p]
	return o, ok
}

// Stats snapshots the layer's accounting.
func (pr *PairPruner) Stats() PruneStats {
	return PruneStats{
		RefEquiv:    int(pr.refEquiv.Load()),
		ClassEquiv:  int(pr.classEquiv.Load()),
		StaticInert: int(pr.inert.Load()),
		Simulated:   int(pr.sim.Load()),
	}
}

// refDigestAt returns the reference (un-faulted) run's state digest at
// the given absolute step, computed at most once per distinct step by
// resuming the nearest golden checkpoint under the same configuration
// faulted group runs use — so a faulted machine whose digest matches
// has provably re-converged to the reference trajectory.
func (pr *PairPruner) refDigestAt(step uint64) [32]byte {
	pr.mu.Lock()
	rd, ok := pr.refs[step]
	if !ok {
		rd = &refDigest{}
		pr.refs[step] = rd
	}
	pr.mu.Unlock()
	rd.once.Do(func() {
		m := pr.s.rungFor(step).Resume(emu.Config{StepLimit: pr.s.c.InjectionStepLimit, SingleStep: pr.s.c.SingleStep})
		m.RunUntil(step)
		rd.d = m.StateDigest()
		m.Release()
	})
	return rd.d
}

// classFor returns (creating if needed) the equivalence class of a
// digested group state.
func (pr *PairPruner) classFor(step uint64, digest [32]byte) *equivClass {
	k := classKey{step: step, digest: digest}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	cl, ok := pr.classes[k]
	if !ok {
		cl = &equivClass{seconds: make(map[Fault]Outcome), rests: make(map[FaultPair]Outcome)}
		pr.classes[k] = cl
	}
	return cl
}

// secondOutcome returns the class's outcome for continuing with one
// second fault, running sim (under the class lock) on first need.
func (pr *PairPruner) secondOutcome(cl *equivClass, second Fault, sim func() Outcome) Outcome {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if o, ok := cl.seconds[second]; ok {
		pr.classEquiv.Add(1)
		return o
	}
	o := sim()
	pr.sim.Add(1)
	cl.seconds[second] = o
	return o
}

// restOutcome is secondOutcome for an order-3 group's remaining pair.
func (pr *PairPruner) restOutcome(cl *equivClass, rest FaultPair, sim func() Outcome) Outcome {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if o, ok := cl.rests[rest]; ok {
		pr.classEquiv.Add(1)
		return o
	}
	o := sim()
	pr.sim.Add(1)
	cl.rests[rest] = o
	return o
}

// runPairGroupPruned is runPairGroup with the equivalence layer
// spliced in between the horizon run and the snapshot forks. The
// digest comparison happens once per group; pairs then classify by
// solo-outcome inheritance (reference-equal state), class-cache
// inheritance, or a fork simulation recorded into the class.
func (s *Session) runPairGroupPruned(pr *PairPruner, g *pairGroup, sel []FaultPair, outcomes []Outcome, tally *Tally, tick func()) {
	// StaticInert fast path: a fully transparent first window keeps the
	// machine bit-identical to the reference trajectory through the
	// effect horizon, so each pair runs exactly like its second fault
	// alone — already known from the solo sweep. Any missing solo
	// outcome falls back to the full dynamic path for the whole group.
	if s.transparentFirst(g.first) {
		known := true
		for _, i := range g.idx {
			if _, ok := pr.solo[sel[i].Second]; !ok {
				known = false
				break
			}
		}
		if known {
			for _, i := range g.idx {
				o := pr.solo[sel[i].Second]
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
		// One run classified the whole group (same as the unpruned
		// tree); not a pruner saving, so it counts as simulated.
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

	// Class machinery materializes lazily: a fully reference-equal
	// group never snapshots or touches the class map.
	var cl *equivClass
	var snap *emu.Snapshot
	fork := func(second Fault) func() Outcome {
		return func() Outcome {
			cfg := emu.Config{StepLimit: s.c.InjectionStepLimit, SingleStep: s.c.SingleStep}
			if spec := SpecOf(second.Model); spec != nil {
				spec.Hooks(second, &cfg)
			}
			m2 := snap.Resume(cfg)
			res2, err2 := m2.Run()
			o := classify(res2, err2, s.good)
			m2.Release()
			return o
		}
	}
	for _, i := range g.idx {
		second := sel[i].Second
		var o Outcome
		if so, ok := pr.solo[second]; refEqual && ok {
			// The first fault's effects died out before the horizon:
			// this machine IS the reference machine, so the pair runs
			// exactly like the second fault alone.
			o = so
			pr.refEquiv.Add(1)
		} else {
			if snap == nil {
				cl = pr.classFor(g.end, digest)
				snap = m.Snapshot()
				snap.SeedDecodeCache(s.codeCache)
				snap.SeedProgram(s.prog)
			}
			o = pr.secondOutcome(cl, second, fork(second))
		}
		outcomes[i] = o
		tally[o]++
		tick()
	}
	// No-op when a snapshot froze m; recycles the buffers otherwise
	// (every pair inherited its second fault's solo outcome).
	m.Release()
}

// ExecutePairShardPruned is ExecutePairShard with the state-hash
// equivalence pruner spliced into the snapshot tree. Results are
// bit-identical to ExecutePairShard (and SimulatePair / the cold
// path): inheritance only substitutes outcomes of provably identical
// continuations. Only the cost and the PruneStats change.
func (s *Session) ExecutePairShardPruned(pairs []FaultPair, pr *PairPruner, shardIndex, shardCount, workers int, progress func(total int)) ([]PairInjection, Tally) {
	return s.executePairShard(pairs, pr, shardIndex, shardCount, workers, progress)
}
