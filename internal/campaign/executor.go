// Executor: the middle stage of the plan → execute → store
// architecture. It drives a fault.Session for one plan, answering as
// many injections as possible without simulating:
//
//   - a whole-plan store hit rebuilds the report from the stored
//     outcome vector (the session still provides the trace, oracles,
//     and fault list — all cheap relative to the injections);
//   - on a miss, a Memo from a previous campaign against a *different*
//     binary answers individual injections whose evidence still holds:
//     a cached outcome is reused iff none of the code pages its run
//     fetched (including the golden prefix its snapshot inherited)
//     overlap the bytes changed since, and its step count fits the new
//     injection budget. This is the patch driver's incremental rule —
//     only faults whose reference-trace window overlaps the last patch
//     round's changed bytes are re-simulated.
//
// The reuse rule leans on the same assumption binary rewriting itself
// makes (reassembleable disassembly): code is not read as data. A
// changed page that any non-executable section overlaps disables the
// memo entirely, because data reads are not part of the recorded
// footprint.
package campaign

import (
	"bytes"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
)

// Memo carries the per-fault simulation records of one finished
// campaign, together with the context they were computed in (binary
// page image, oracles, inputs, injection budget), so a later campaign
// against a patched variant of the binary can reuse every outcome the
// patch round did not touch.
type Memo struct {
	image     map[uint64][]byte // page address → page bytes, all sections overlaid
	dataPages map[uint64]bool   // pages overlapped by a non-executable section
	good      fault.Observable
	goodIn    string // campaign inputs the records assume
	badIn     string
	limit     uint64 // injection step budget the records ran under
	records   map[fault.Fault]Record
}

// buildImage lays a binary's sections into zero-filled page images and
// marks the pages any non-executable section overlaps.
func buildImage(bin *elf.Binary) (map[uint64][]byte, map[uint64]bool) {
	img := make(map[uint64][]byte)
	data := make(map[uint64]bool)
	for _, s := range bin.Sections {
		for a := s.Addr &^ uint64(emu.PageSize-1); a < s.Addr+s.Size(); a += emu.PageSize {
			if _, ok := img[a]; !ok {
				img[a] = make([]byte, emu.PageSize)
			}
			if s.Flags&elf.FlagExec == 0 {
				data[a] = true
			}
		}
		for i, b := range s.Data {
			addr := s.Addr + uint64(i)
			img[addr&^uint64(emu.PageSize-1)][addr&uint64(emu.PageSize-1)] = b
		}
	}
	return img, data
}

// newMemo assembles the memo for a finished campaign: the shard-local
// fault selection zipped with its records. img/data is the binary's
// page image (from buildImage), passed in so one solo() pass builds it
// exactly once.
func newMemo(c fault.Campaign, good fault.Observable, limit uint64, sel []fault.Fault, records []Record, img map[uint64][]byte, data map[uint64]bool) *Memo {
	m := &Memo{
		image:     img,
		dataPages: data,
		good:      good,
		goodIn:    string(c.Good),
		badIn:     string(c.Bad),
		limit:     limit,
		records:   make(map[fault.Fault]Record, len(sel)),
	}
	for i, f := range sel {
		m.records[f] = records[i]
	}
	return m
}

// diff compares the memo's binary image against a new campaign's and
// returns the set of changed pages (differing bytes, or present in only
// one image) plus whether any changed page carries data — in which case
// the memo must not be used at all (data reads are outside the recorded
// footprint).
func (m *Memo) diff(img map[uint64][]byte, data map[uint64]bool) (changed map[uint64]bool, dataChanged bool) {
	changed = make(map[uint64]bool)
	for a, p := range m.image {
		if q, ok := img[a]; !ok || !bytes.Equal(p, q) {
			changed[a] = true
		}
	}
	for a := range img {
		if _, ok := m.image[a]; !ok {
			changed[a] = true
		}
	}
	for a := range changed {
		if m.dataPages[a] || data[a] {
			dataChanged = true
		}
	}
	return changed, dataChanged
}

// lookup decides whether a cached record still answers fault f against
// the changed-page set and the new injection budget:
//
//   - any footprint page among the changed pages invalidates the record
//     (the run would fetch different bytes somewhere);
//   - a budget-cut run is only valid under a budget that cuts at least
//     as early (a larger budget could let it progress further);
//   - a finished non-crash run is only valid under a budget it fits in
//     (a smaller budget would cut it into a crash); a crash stays a
//     crash under any budget — cutting it earlier still crashes it.
func (m *Memo) lookup(f fault.Fault, changed map[uint64]bool, limit uint64) (Record, bool) {
	rec, ok := m.records[f]
	if !ok {
		return Record{}, false
	}
	for _, pa := range rec.Pages {
		if changed[pa] {
			return Record{}, false
		}
	}
	if rec.LimitHit {
		if limit > m.limit {
			return Record{}, false
		}
	} else if rec.Outcome != fault.OutcomeCrash && rec.Steps > limit {
		return Record{}, false
	}
	return rec, true
}

// executor runs one plan on a session, consulting the store and a memo.
// With prune set, simulation routes through the fault-equivalence
// pruning pass; the accumulated accounting lands in stats. The stages
// (solo, then runStage for pairs and triples) are called sequentially
// by one goroutine — the pruners they build handle the intra-stage
// concurrency — so stats and pairPruner need no locking here.
type executor struct {
	s       *fault.Session
	store   *Store
	prune   bool
	workers int

	stats      fault.PruneStats
	pairPruner *fault.PairPruner // built by the pair stage, reused by the triple stage
}

// pruneStats returns the accumulated pruning accounting, or nil when
// pruning was off (so exports omit the block entirely). The pair
// pruner's share is read live rather than accumulated into stats: the
// pair and triple stages deliberately share one pruner, and snapshotting
// it once here keeps their joint accounting from double-counting.
func (e *executor) pruneStats() *fault.PruneStats {
	if !e.prune {
		return nil
	}
	st := e.stats
	if e.pairPruner != nil {
		st.Add(e.pairPruner.Stats())
	}
	return &st
}

// soloSim returns the order-1 simulation functions for this run:
// pruned or plain. flush adds the pruner's accounting to the
// executor's after the sweep (no-op when unpruned).
func (e *executor) soloSim() (sim func(fault.Fault) fault.Outcome, rec func(fault.Fault) fault.SimRecord, flush func()) {
	if !e.prune {
		return e.s.Simulate, e.s.SimulateRecord, func() {}
	}
	pr := e.s.NewPruner()
	return pr.Simulate, pr.SimulateRecord, func() { e.stats.Add(pr.Stats()) }
}

// shardSelect adapts the engine's single round-robin decomposition
// (fault.ShardSelect — also behind runShard and ExecutePairShard) to
// the campaign Shard type, so stored outcome vectors are always zipped
// back against exactly the selection the engine executed.
func shardSelect[T any](items []T, shard Shard) []T {
	return fault.ShardSelect(items, shard.Index, shard.Count)
}

// acquire looks the plan up in the store. It returns the stored entry
// when it was computed from exactly this stage — the same item-list
// digest, oracles, injection budget, and shard-local length n — and
// otherwise the commit function that saves the re-computed entry: the
// singleflight leader's commit, or a direct Save when a stale entry
// (schema drift in enumeration, an oracle change) was served, since no
// flight is held then. Concurrent cells computing the same plan key
// elect one leader; the rest are served its committed entry.
func (e *executor) acquire(plan Plan, digest string, n int, length func(*Entry) int) (*Entry, func(*Entry) CacheStats) {
	entry, commit := e.store.Acquire(plan.Key)
	good, bad := e.s.Oracles()
	if entry != nil {
		if entry.Digest == digest && entry.GoodOracle == good && entry.BadOracle == bad &&
			entry.Limit == e.s.InjectionLimit() && length(entry) == n {
			return entry, nil
		}
		commit = e.store.Save
	}
	return nil, func(fresh *Entry) CacheStats {
		fresh.Key, fresh.Digest = plan.Key, digest
		fresh.GoodOracle, fresh.BadOracle, fresh.Limit = good, bad, e.s.InjectionLimit()
		stats := CacheStats{Misses: 1}
		if commit(fresh) != nil {
			stats.WriteErrors++
		}
		return stats
	}
}

// solo executes the order-1 stage of a plan: store lookup first, then
// memo-assisted simulation of the misses. It returns the shard-local
// injections, the memo for the next incremental run (nil when
// wantMemo is false), and the cache accounting. With no store, no
// previous memo, and no memo requested, it takes the plain-simulation
// fast path, with no footprint recording or image copying.
func (e *executor) solo(c fault.Campaign, shard Shard, prev *Memo, wantMemo bool, m *meter) ([]fault.Injection, fault.Tally, *Memo, CacheStats) {
	if e.store == nil && prev == nil && !wantMemo {
		sim, _, flush := e.soloSim()
		injections, tally := e.s.ExecuteShardSim(shard.Index, shard.Count, e.workers, sim, m.engine())
		flush()
		return injections, tally, nil, CacheStats{Resimulated: len(injections)}
	}

	sel := shardSelect(e.s.Faults(), shard)
	good, _ := e.s.Oracles()
	limit := e.s.InjectionLimit()

	// The binary's page image serves the memo gate and any memo built
	// below; construct it lazily and at most once per run.
	var img map[uint64][]byte
	var dataPages map[uint64]bool
	memoOf := func(records []Record) *Memo {
		if !wantMemo {
			return nil
		}
		if img == nil {
			img, dataPages = buildImage(c.Binary)
		}
		return newMemo(c, good, limit, sel, records, img, dataPages)
	}

	var save func(*Entry) CacheStats
	if e.store != nil {
		entry, commit := e.acquire(NewPlan(c, shard, 1, 0), digestFaults(e.s.Faults()), len(sel),
			func(en *Entry) int { return len(en.Records) })
		if entry != nil {
			injections := make([]fault.Injection, len(sel))
			var tally fault.Tally
			for i, f := range sel {
				injections[i] = fault.Injection{Fault: f, Outcome: entry.Records[i].Outcome}
				tally[entry.Records[i].Outcome]++
			}
			m.complete(len(sel))
			return injections, tally, memoOf(entry.Records), CacheStats{Hits: 1}
		}
		save = commit
	}

	var changed map[uint64]bool
	useMemo := false
	if prev != nil {
		if img == nil {
			img, dataPages = buildImage(c.Binary)
		}
		changed, useMemo = memoGate(c, prev, good, img, dataPages)
	}
	pos := make(map[fault.Fault]int, len(sel))
	for i, f := range sel {
		pos[f] = i
	}
	records := make([]Record, len(sel))
	var reused, resim atomic.Int64
	_, simRecord, flush := e.soloSim()
	sim := func(f fault.Fault) fault.Outcome {
		i := pos[f]
		if useMemo {
			if rec, ok := prev.lookup(f, changed, limit); ok {
				records[i] = rec
				reused.Add(1)
				return rec.Outcome
			}
		}
		sr := simRecord(f)
		records[i] = Record{Outcome: sr.Outcome, Steps: sr.Steps, LimitHit: sr.LimitHit, Pages: sr.Pages}
		resim.Add(1)
		return sr.Outcome
	}
	injections, tally := e.s.ExecuteShardSim(shard.Index, shard.Count, e.workers, sim, m.engine())
	flush()

	stats := CacheStats{Reused: int(reused.Load()), Resimulated: int(resim.Load())}
	if save != nil {
		stats.Add(save(&Entry{Records: records}))
	}
	return injections, tally, memoOf(records), stats
}

// memoGate decides whether the previous memo applies to this campaign
// at all, and computes the changed-page set if so. img/data is the new
// binary's page image.
func memoGate(c fault.Campaign, prev *Memo, good fault.Observable, img map[uint64][]byte, data map[uint64]bool) (map[uint64]bool, bool) {
	if prev == nil || prev.good != good ||
		prev.goodIn != string(c.Good) || prev.badIn != string(c.Bad) {
		return nil, false
	}
	changed, dataChanged := prev.diff(img, data)
	if dataChanged {
		return nil, false
	}
	return changed, true
}

// stage describes one exact-key stage of a plan over the completed
// lower stages — the order-2 pair sweep or the order-3 triple sweep —
// for runStage: T is the enumerated item, I its injection.
type stage[T, I any] struct {
	order  int
	budget int // the plan's enumeration budget, already defaulted
	items  []T // the full (unsharded) enumeration
	digest func([]T) string

	// execute simulates the stage's shard, reporting each completed
	// item to progress (nil when no callback is configured).
	execute func(progress func(total int)) ([]I, fault.Tally)
	inject  func(T, fault.Outcome) I // rebuilds an injection from a stored outcome
	outcome func(I) fault.Outcome
}

// runStage executes one exact-key stage: plan and digest the
// enumeration, Store.Acquire, replay a matching entry or re-simulate
// and save. Reuse is exact-key only — pair and triple runs fork
// mid-trace snapshots of a faulted machine, so no per-item footprint
// is recorded. Without a store it skips the plan and digests entirely:
// the plain simulation hot path, like solo()'s.
func runStage[T, I any](e *executor, c fault.Campaign, shard Shard, m *meter, st stage[T, I]) ([]I, fault.Tally, CacheStats) {
	if e.store == nil {
		injections, tally := st.execute(m.engine())
		return injections, tally, CacheStats{}
	}
	sel := shardSelect(st.items, shard)
	entry, save := e.acquire(NewPlan(c, shard, st.order, st.budget), st.digest(st.items), len(sel),
		func(en *Entry) int { return len(en.Outcomes) })
	if entry != nil {
		out := make([]I, len(sel))
		var tally fault.Tally
		for i, it := range sel {
			out[i] = st.inject(it, entry.Outcomes[i])
			tally[entry.Outcomes[i]]++
		}
		m.complete(len(sel))
		return out, tally, CacheStats{Hits: 1}
	}
	injections, tally := st.execute(m.engine())
	outcomes := make([]fault.Outcome, len(injections))
	for i, in := range injections {
		outcomes[i] = st.outcome(in)
	}
	return injections, tally, save(&Entry{Outcomes: outcomes})
}

// pairStage is the order-2 stage over a completed solo sweep. A pruned
// run keeps its PairPruner on the executor so a following order-3
// stage shares the reference digests and equivalence classes already
// discovered.
func (e *executor) pairStage(solo []fault.Injection, maxPairs int, shard Shard) stage[fault.FaultPair, fault.PairInjection] {
	if maxPairs <= 0 {
		maxPairs = fault.DefaultMaxPairs
	}
	pairs := fault.EnumeratePairs(solo, maxPairs)
	return stage[fault.FaultPair, fault.PairInjection]{
		order: 2, budget: maxPairs, items: pairs, digest: digestPairs,
		execute: func(progress func(int)) ([]fault.PairInjection, fault.Tally) {
			if !e.prune {
				return e.s.ExecutePairShard(pairs, shard.Index, shard.Count, e.workers, progress)
			}
			e.pairPruner = e.s.NewPairPruner(solo)
			return e.s.ExecutePairShardPruned(pairs, e.pairPruner, shard.Index, shard.Count, e.workers, progress)
		},
		inject: func(p fault.FaultPair, o fault.Outcome) fault.PairInjection {
			return fault.PairInjection{Pair: p, Outcome: o}
		},
		outcome: func(in fault.PairInjection) fault.Outcome { return in.Outcome },
	}
}

// tripleStage is the order-3 stage over the completed solo and pair
// stages. The plan's budget slot carries maxTriples — sound because
// the triple list derives from the solo sweep alone, independent of
// the pair budget. Triples always run pruned, on the pair stage's
// PairPruner (built here when the pair stage was answered from the
// store).
func (e *executor) tripleStage(solo []fault.Injection, pairs []fault.PairInjection, maxTriples int, shard Shard) stage[fault.FaultTriple, fault.TripleInjection] {
	if maxTriples <= 0 {
		maxTriples = fault.DefaultMaxTriples
	}
	triples := fault.EnumerateTriples(solo, maxTriples)
	return stage[fault.FaultTriple, fault.TripleInjection]{
		order: 3, budget: maxTriples, items: triples, digest: digestTriples,
		execute: func(progress func(int)) ([]fault.TripleInjection, fault.Tally) {
			if e.pairPruner == nil {
				e.pairPruner = e.s.NewPairPruner(solo)
			}
			e.pairPruner.SetPairOutcomes(pairs)
			return e.s.ExecuteTripleShard(triples, e.pairPruner, shard.Index, shard.Count, e.workers, progress)
		},
		inject: func(t fault.FaultTriple, o fault.Outcome) fault.TripleInjection {
			return fault.TripleInjection{Triple: t, Outcome: o}
		},
		outcome: func(in fault.TripleInjection) fault.Outcome { return in.Outcome },
	}
}
