// Package campaign orchestrates fault-injection sweeps at production
// scale. It layers batching, sharding, progress reporting, and
// structured export on top of the snapshot-cached execution engine in
// internal/fault:
//
//   - Run drives one campaign through the engine: fault sites are
//     enumerated once per binary, the golden run is memoized, and every
//     injection forks a copy-on-write machine snapshot instead of
//     re-initializing memory and registers (the state-reuse strategy
//     that makes exhaustive fault simulation tractable, cf. ARMORY).
//   - Shard{I, N} restricts a run to every N-th fault, so one campaign
//     can be split across processes or machines; Merge recombines the
//     per-shard reports into a report bit-identical to an unsharded run.
//   - RunAll sweeps many binaries/variants in one call with aggregate
//     progress callbacks — the shape of the paper's evaluation, which
//     compares the same campaign across original, Faulter+Patcher,
//     Hybrid, and duplication-baseline variants.
//
// Results are deterministic: for a given campaign, the report is
// bit-identical regardless of worker count or shard decomposition.
package campaign

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/r2r/reinforce/internal/fault"
)

// Shard selects a round-robin slice of a campaign's fault list: fault j
// is simulated iff j mod N == I. The zero value means "the whole
// campaign".
type Shard struct {
	Index int // shard number in [0, Count)
	Count int // total shards; <= 1 disables sharding
}

// String renders the shard as "i/n".
func (s Shard) String() string {
	if s.Count <= 1 {
		return "1/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses the CLI's "i/n" shard syntax. The empty string is
// the whole campaign (the zero Shard); anything else must be exactly
// two base-10 integers around one slash, with n >= 1 and i in [0, n).
func ParseShard(s string) (Shard, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Shard{}, nil
	}
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("campaign: bad shard %q: want i/n", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return Shard{}, fmt.Errorf("campaign: bad shard index in %q: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(cnt))
	if err != nil {
		return Shard{}, fmt.Errorf("campaign: bad shard count in %q: %v", s, err)
	}
	if n < 1 {
		return Shard{}, fmt.Errorf("campaign: shard count %d in %q: want >= 1", n, s)
	}
	if i < 0 || i >= n {
		return Shard{}, fmt.Errorf("campaign: shard index %d outside [0,%d)", i, n)
	}
	return Shard{Index: i, Count: n}, nil
}

// normalize clamps the zero value and validates the rest.
func (s Shard) normalize() (Shard, error) {
	if s.Count <= 1 {
		return Shard{Index: 0, Count: 1}, nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return s, fmt.Errorf("campaign: shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return s, nil
}

// Progress is a point-in-time view of a running batch.
type Progress struct {
	Job      string // name of the campaign being executed
	JobIndex int    // 0-based position in the batch
	Jobs     int    // batch size (1 for Run)
	Done     int    // injections finished in this job
	Total    int    // injections in this job
}

// Options tune campaign execution without changing its results.
type Options struct {
	// Workers overrides the per-campaign worker count (default: the
	// campaign's own setting, itself defaulting to GOMAXPROCS).
	Workers int

	// Shard restricts execution to one shard of the run's top stage:
	// the fault list at order 1, the pair list at order 2, the triple
	// list at order 3 (see Run).
	Shard Shard

	// MaxPairs caps order-2 pair enumeration (orders 2 and 3;
	// 0 = fault.DefaultMaxPairs).
	MaxPairs int

	// MaxTriples caps order-3 triple enumeration (order 3 only;
	// 0 = fault.DefaultMaxTriples).
	MaxTriples int

	// Prune routes execution through the fault-equivalence pruning pass
	// (fault.Pruner / fault.PairPruner): statically classifiable faults
	// and state-equivalent pair forks are answered without simulation.
	// Like Workers and Store, pruning never changes results — reports
	// stay bit-identical, test-enforced by the differential harness in
	// prunediff_test.go — so it is not part of the plan key. It does
	// change the execution accounting, reported as PruneStats.
	// Order 3 always prunes; it is infeasible without it.
	Prune bool

	// Progress, when non-nil, receives one serialized update per
	// completed injection, with Done counting them, so the last call
	// of a job has Done == Total; a stage answered entirely from the
	// store reports a single Done == Total update instead. Called from
	// the executing goroutines but never concurrently. A run of order
	// 2 or 3 reports each stage as a separate job ("order-1" ...
	// "order-3"; a batch job or corpus cell labels them
	// "<name> order-1" ... under its own job index).
	Progress func(Progress)

	// Store, when non-nil, is the content-addressed result cache the
	// planner consults before executing and the executor writes back
	// to (see Store). Results are bit-identical with or without it —
	// test-enforced alongside the worker/shard determinism guarantees.
	Store *Store

	// Pool, when non-nil, is the shared execution pool the run's
	// sessions execute on (see WorkerPool) instead of spawning private
	// per-stage goroutine sets — the corpus scheduler's injection
	// point. Like Workers, it never changes results, only where the
	// simulations run; it is not part of the plan key.
	Pool fault.Pool

	// newSession, when set, replaces fault.NewSession for the run —
	// the corpus runner's hook for reusing one session across the
	// orders of a cell chain (session construction replays the golden
	// runs and snapshots the trace, too expensive to repeat per cell).
	newSession func(fault.Campaign) (*fault.Session, error)
}

// session builds (or fetches, via the newSession hook) the run's
// session and injects the shared pool when one is configured.
func (opt Options) session(c fault.Campaign) (*fault.Session, error) {
	var s *fault.Session
	var err error
	if opt.newSession != nil {
		s, err = opt.newSession(c)
	} else {
		s, err = fault.NewSession(c)
	}
	if err != nil {
		return nil, err
	}
	if opt.Pool != nil {
		s.SetPool(opt.Pool)
	}
	return s, nil
}

// RunResult is the full outcome of one campaign run: the order-1
// report and its tally, the pair and triple stages when the run's
// order reaches them, the memo a follow-up run against a patched
// binary can reuse outcomes from, and the execution accounting.
type RunResult struct {
	Report *fault.Report
	Tally  fault.Tally   // outcome aggregate of Report's injections
	Order2 *Order2Report // pair stage; nil below order 2
	Order3 *Order3Report // triple stage; nil below order 3
	Memo   *Memo         // solo-sweep memo; nil unless RunIncremental
	Cache  CacheStats
	Prune  *fault.PruneStats // pruning accounting; nil unless Options.Prune
}

// Run executes one fault campaign of the given order (1, 2 or 3):
// the order-1 sweep, then the deterministically enumerated pair list
// (fault.EnumeratePairs, opt.MaxPairs) on the first-fault snapshot tree
// when order >= 2, then the triple list (fault.EnumerateTriples,
// opt.MaxTriples) when order == 3. opt.Shard applies to the top stage
// only — the lower stages run unsharded, since pair and triple
// enumeration and pruning need every lower outcome; Merge and
// MergeOrder2 recombine the shards. Order 3 always prunes: the cubic
// triple space is infeasible without it. With Options.Store set, every
// stage is answered from its own plan key when possible and recorded
// into it otherwise. Each list is a pure function of the deterministic
// lower stages, so results are bit-identical across worker counts,
// shard decompositions, pruning, and store replay.
func Run(c fault.Campaign, order int, opt Options) (*RunResult, error) {
	return run("", 0, 1, order, c, opt, nil, false)
}

// RunIncremental is Run through the planner → store → executor path
// with a memo. prev, when non-nil, is the memo of a previous run
// (typically against the pre-patch binary of a driver iteration): every
// solo fault whose recorded footprint avoids the bytes changed since is
// answered from it, and only the rest are re-simulated. The pair and
// triple stages are reused on exact plan-key matches only, since they
// fork mid-trace faulted machines whose footprints are not recorded.
// Results are bit-identical to Run without any cache.
func RunIncremental(c fault.Campaign, order int, opt Options, prev *Memo) (*RunResult, error) {
	return run("", 0, 1, order, c, opt, prev, true)
}

// checkOrder rejects fault orders the engine does not run.
func checkOrder(order int) error {
	if order < 1 || order > 3 {
		return fmt.Errorf("campaign: unsupported fault order %d: want 1, 2 or 3", order)
	}
	return nil
}

// run is the one campaign execution path: the solo stage, then the
// pair stage when order >= 2, then the triple stage when order == 3.
// wantMemo gates the footprint recording and memo assembly: callers
// that discard the memo and bring no store (Run, RunAll without a
// store) keep the plain simulation hot path. job/jobIndex/jobs label
// the progress updates (see Options.Progress).
func run(job string, jobIndex, jobs, order int, c fault.Campaign, opt Options, prev *Memo, wantMemo bool) (*RunResult, error) {
	if err := checkOrder(order); err != nil {
		return nil, err
	}
	if order == 3 {
		opt.Prune = true
	}
	shard, err := opt.Shard.normalize()
	if err != nil {
		return nil, err
	}
	s, err := opt.session(c)
	if err != nil {
		return nil, err
	}
	// stage returns the shard and progress meter of stage k.
	stage := func(k int) (Shard, *meter) {
		sh := Shard{}
		if k == order {
			sh = shard
		}
		switch {
		case order == 1:
			return sh, newMeter(opt, job, jobIndex, jobs)
		case job == "":
			return sh, newMeter(opt, fmt.Sprintf("order-%d", k), k-1, order)
		default:
			return sh, newMeter(opt, fmt.Sprintf("%s order-%d", job, k), jobIndex, jobs)
		}
	}

	e := &executor{s: s, store: opt.Store, prune: opt.Prune, workers: opt.Workers}
	sh, m := stage(1)
	solo, tally, memo, stats := e.solo(c, sh, prev, wantMemo, m)
	res := &RunResult{Report: s.Report(solo), Tally: tally, Memo: memo, Cache: stats}
	if order >= 2 {
		sh, m := stage(2)
		pairs, tally, stats := runStage(e, c, sh, m, e.pairStage(solo, opt.MaxPairs, sh))
		res.Order2 = &Order2Report{Solo: res.Report, Pairs: pairs, PairTally: tally}
		res.Cache.Add(stats)
	}
	if order == 3 {
		sh, m := stage(3)
		triples, tally, stats := runStage(e, c, sh, m, e.tripleStage(solo, res.Order2.Pairs, opt.MaxTriples, sh))
		res.Order3 = &Order3Report{Triples: triples, TripleTally: tally}
		res.Cache.Add(stats)
	}
	res.Prune = e.pruneStats()
	return res, nil
}

// meter adapts the Options callback to the engine's per-unit signal:
// it owns the job's completion count under its mutex, so every
// completed injection yields exactly one serialized update whose Done
// counts them, ending at Done == Total. A nil meter (no callback
// configured) is a valid no-op.
type meter struct {
	mu     sync.Mutex
	report func(Progress)
	p      Progress
}

// newMeter returns the meter of one job, or nil when no callback is
// configured.
func newMeter(opt Options, job string, jobIndex, jobs int) *meter {
	if opt.Progress == nil {
		return nil
	}
	return &meter{report: opt.Progress, p: Progress{Job: job, JobIndex: jobIndex, Jobs: jobs}}
}

// add records n more completed units of total and reports. The
// callback runs under the lock: that is what serializes and orders
// the updates, as Options.Progress promises.
func (m *meter) add(n, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.Done += n
	m.p.Total = total
	m.report(m.p)
}

// tick is the engine-facing callback: one more unit of total done.
func (m *meter) tick(total int) { m.add(1, total) }

// engine returns the callback to hand the fault engine — nil without a
// configured callback, keeping the engine's no-progress path.
func (m *meter) engine() func(total int) {
	if m == nil {
		return nil
	}
	return m.tick
}

// complete reports a whole stage answered at once (a store hit) as a
// single Done == Total update.
func (m *meter) complete(total int) {
	if m != nil {
		m.add(total, total)
	}
}

// Job names one campaign of a batch.
type Job struct {
	Name     string
	Campaign fault.Campaign
}

// Result is the outcome of one batch job: its RunResult (zero when Err
// is set) plus the job's name and wall time.
type Result struct {
	Name string
	RunResult
	Elapsed time.Duration
	Err     error
}

// RunAll executes a batch of campaigns of one order — typically the
// same sweep over many binaries or hardened variants. Jobs run
// sequentially (each one already saturates the worker pool
// internally); a failing job records its error and the batch
// continues. No memo is built: RunAll keeps the plain simulation path
// unless a store is configured.
func RunAll(jobs []Job, order int, opt Options) []Result {
	out := make([]Result, len(jobs))
	for i, job := range jobs {
		start := time.Now() //lint:allow wallclock (Elapsed is reporting-only, stripped before determinism comparisons)
		res, err := run(job.Name, i, len(jobs), order, job.Campaign, opt, nil, false)
		out[i] = Result{Name: job.Name, Elapsed: time.Since(start), Err: err}
		if err == nil {
			out[i].RunResult = *res
		}
	}
	return out
}

// Order2Report is the outcome of an order-2 multi-fault campaign: the
// order-1 sweep it was pruned from, plus the simulated fault pairs.
type Order2Report struct {
	Solo  *fault.Report         // the complete order-1 campaign
	Pairs []fault.PairInjection // simulated pairs, in enumeration order

	// PairTally is the engine-provided outcome aggregate of Pairs
	// (populated by Run and MergeOrder2, like Result.Tally for
	// order-1 batches). PairCount and Summarize derive from Pairs
	// directly, so they are exact on any report.
	PairTally fault.Tally
}

// PairCount returns how many pairs had the given outcome.
func (r *Order2Report) PairCount(o fault.Outcome) int {
	n := 0
	for _, p := range r.Pairs {
		if p.Outcome == o {
			n++
		}
	}
	return n
}

// SuccessfulPairs returns the pairs that constitute order-2
// vulnerabilities.
func (r *Order2Report) SuccessfulPairs() []fault.PairInjection {
	var out []fault.PairInjection
	for _, p := range r.Pairs {
		if p.Outcome == fault.OutcomeSuccess {
			out = append(out, p)
		}
	}
	return out
}

// Order3Report is the triple stage of an order-3 multi-fault campaign
// (the lower stages are the RunResult's Report and Order2).
type Order3Report struct {
	Triples     []fault.TripleInjection // simulated triples, in enumeration order
	TripleTally fault.Tally
}

// TripleCount returns how many triples had the given outcome.
func (r *Order3Report) TripleCount(o fault.Outcome) int {
	n := 0
	for _, t := range r.Triples {
		if t.Outcome == o {
			n++
		}
	}
	return n
}

// MergeOrder2 recombines the pair shards of one order-2 campaign
// (shards[i] produced with Shard{i, len(shards)}) into a report
// bit-identical to the unsharded run. Every shard carries the same
// (unsharded) solo report; the pair lists recombine round-robin.
func MergeOrder2(shards []*Order2Report) (*Order2Report, error) {
	n := len(shards)
	if n == 0 {
		return nil, errors.New("campaign: no shards to merge")
	}
	if n == 1 {
		return shards[0], nil
	}
	total := 0
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("campaign: shard %d is nil", i)
		}
		if sh.Solo.GoodOracle != shards[0].Solo.GoodOracle ||
			sh.Solo.BadOracle != shards[0].Solo.BadOracle ||
			len(sh.Solo.Injections) != len(shards[0].Solo.Injections) {
			return nil, fmt.Errorf("campaign: shard %d solo sweep differs — not the same campaign", i)
		}
		total += len(sh.Pairs)
	}
	for i, sh := range shards {
		want := (total - i + n - 1) / n
		if len(sh.Pairs) != want {
			return nil, fmt.Errorf("campaign: shard %d has %d pairs, want %d of %d total",
				i, len(sh.Pairs), want, total)
		}
		// An engine-populated tally must agree with the pair list it
		// came with — a cheap integrity check that catches truncated or
		// hand-edited shards the size decomposition alone cannot (a
		// shorter pair list can masquerade as a smaller campaign).
		// Hand-built reports with an unpopulated tally are exempt.
		if sh.PairTally.Total() == 0 {
			continue
		}
		var tt fault.Tally
		for _, p := range sh.Pairs {
			tt[p.Outcome]++
		}
		if tt != sh.PairTally {
			return nil, fmt.Errorf("campaign: shard %d pair tally %v inconsistent with its %d pairs",
				i, sh.PairTally, len(sh.Pairs))
		}
	}
	merged := &Order2Report{
		Solo:  shards[0].Solo,
		Pairs: make([]fault.PairInjection, 0, total),
	}
	cursor := make([]int, n)
	for j := 0; j < total; j++ {
		w := j % n
		merged.Pairs = append(merged.Pairs, shards[w].Pairs[cursor[w]])
		cursor[w]++
	}
	for _, p := range merged.Pairs {
		merged.PairTally[p.Outcome]++
	}
	return merged, nil
}

// Merge recombines the reports of all Count shards of one campaign
// (shards[i] produced with Shard{i, len(shards)}) into a single report
// bit-identical to the unsharded run. The shard reports must come from
// the same campaign and be passed in shard order.
func Merge(shards []*fault.Report) (*fault.Report, error) {
	n := len(shards)
	if n == 0 {
		return nil, errors.New("campaign: no shards to merge")
	}
	if n == 1 {
		return shards[0], nil
	}
	total := 0
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("campaign: shard %d is nil", i)
		}
		if sh.GoodOracle != shards[0].GoodOracle || sh.BadOracle != shards[0].BadOracle {
			return nil, fmt.Errorf("campaign: shard %d oracles differ — not the same campaign", i)
		}
		total += len(sh.Injections)
	}
	// Round-robin assignment means shard i holds faults i, i+n, i+2n...
	// — so shard sizes must match that decomposition exactly.
	for i, sh := range shards {
		want := (total - i + n - 1) / n
		if len(sh.Injections) != want {
			return nil, fmt.Errorf("campaign: shard %d has %d injections, want %d of %d total",
				i, len(sh.Injections), want, total)
		}
	}
	merged := &fault.Report{
		Trace:      shards[0].Trace,
		GoodOracle: shards[0].GoodOracle,
		BadOracle:  shards[0].BadOracle,
		Injections: make([]fault.Injection, 0, total),
	}
	cursor := make([]int, n)
	for j := 0; j < total; j++ {
		w := j % n
		merged.Injections = append(merged.Injections, shards[w].Injections[cursor[w]])
		cursor[w]++
	}
	return merged, nil
}
