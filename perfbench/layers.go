package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emit"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/lift"
	"github.com/r2r/reinforce/internal/lower"
	"github.com/r2r/reinforce/internal/passes"
	"github.com/r2r/reinforce/internal/patch"
	"github.com/r2r/reinforce/internal/static"
)

// The probes drive a workload's inputs through the exported entry
// points of the layers its top-level calls hide (RunCorpus and
// FaulterPatcher are opaque from outside), each call in its own span.
// Layers a workload's replay already timed are not probed again.

// maxProbeSims caps the faults one binary contributes to the
// single-simulation probes; the sample is strided over the whole list.
const maxProbeSims = 1500

// probeSubset picks the expensive probes' inputs: each catalog case
// and its first variant.
func probeSubset(inputs []input) []input {
	var out []input
	for _, in := range inputs {
		if in.rank <= 1 {
			out = append(out, in)
		}
	}
	return out
}

// layerMetrics accumulates per-layer values; set keeps the first value
// for a name, so replay-derived values win over probe fallbacks.
type layerMetrics map[string]float64

func (m layerMetrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

func (m layerMetrics) has(names ...string) bool {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return false
		}
	}
	return true
}

// emuRepeats is how many times the emulator probe repeats each run.
const emuRepeats = 3

// probeEmu runs every input's good and bad input on the fast path,
// with page recording, and on the single-step interpreter, alternating
// the modes run by run so each sees the same cache state.
func probeEmu(inputs []input, tr *tracer, m layerMetrics) error {
	modes := []struct {
		name string
		cfg  emu.Config
	}{
		{"fast", emu.Config{}},
		{"record", emu.Config{RecordPages: true}},
		{"single", emu.Config{SingleStep: true}},
	}
	steps := make([]uint64, len(modes))
	busy := make([]time.Duration, len(modes))
	var ms runtime.MemStats
	var allocs uint64
	sims := 0
	for _, in := range inputs {
		for _, stdin := range [][]byte{in.c.Good, in.c.Bad} {
			for r := 0; r < emuRepeats; r++ {
				for i, mode := range modes {
					cfg := mode.cfg
					cfg.Stdin, cfg.StepLimit = stdin, corpusStepLimit
					runtime.ReadMemStats(&ms)
					before := ms.TotalAlloc
					var err error
					busy[i] += timed(tr, "emu.run."+mode.name, func() {
						mc := emu.New(in.bin, cfg)
						var res emu.Result
						res, err = mc.Run()
						steps[i] += res.Steps
						mc.Release()
					})
					if err != nil {
						return fmt.Errorf("%s: %s run: %w", in.c.Name, mode.name, err)
					}
					runtime.ReadMemStats(&ms)
					allocs += ms.TotalAlloc - before
					sims++
				}
			}
		}
	}
	for i, mode := range modes {
		m.set("emu.steps_per_s."+mode.name, float64(steps[i])/busy[i].Seconds())
	}
	m.set("emu.alloc_bytes_per_sim", float64(allocs)/float64(sims))
	return nil
}

// probeFault builds a session per input and times single simulations
// (plain and footprint-recording) and the pruned pair and triple trees.
func probeFault(inputs []input, tr *tracer, m layerMetrics) error {
	var sessT, simT, recT, pairT, tripleT time.Duration
	sims, pairs, triples := 0, 0, 0
	var ps fault.PruneStats
	for _, in := range inputs {
		c := fault.Campaign{Binary: in.bin, Good: in.c.Good, Bad: in.c.Bad, Models: bothModels,
			StepLimit: corpusStepLimit, DedupSites: true, Workers: numWorkers()}
		var s *fault.Session
		var err error
		sessT += timed(tr, "fault.new_session", func() { s, err = fault.NewSession(c) })
		if err != nil {
			return fmt.Errorf("%s: %w", in.c.Name, err)
		}
		sample := stride(s.Faults(), maxProbeSims)
		simT += timed(tr, "fault.simulate", func() {
			for _, f := range sample {
				s.Simulate(f)
			}
		})
		recT += timed(tr, "fault.simulate_record", func() {
			for _, f := range sample {
				s.SimulateRecord(f)
			}
		})
		sims += len(sample)

		var solo []fault.Injection
		tr.do("fault.execute_shard", func() { solo, _ = s.ExecuteShard(0, 1, numWorkers(), nil) })
		pr := s.NewPairPruner(solo)
		fp := fault.EnumeratePairs(solo, 0)
		var pinj []fault.PairInjection
		pairT += timed(tr, "fault.pairs", func() { pinj, _ = s.ExecutePairShardPruned(fp, pr, 0, 1, numWorkers(), nil) })
		pairs += len(pinj)
		pr.SetPairOutcomes(pinj)
		ft := fault.EnumerateTriples(solo, 0)
		var tinj []fault.TripleInjection
		tripleT += timed(tr, "fault.triples", func() { tinj, _ = s.ExecuteTripleShard(ft, pr, 0, 1, numWorkers(), nil) })
		triples += len(tinj)
		ps.Add(pr.Stats())
	}
	m.set("fault.session_s", sessT.Seconds()/float64(len(inputs)))
	m.set("fault.sims_per_s", float64(sims)/simT.Seconds())
	m.set("fault.simrec_per_s", float64(sims)/recT.Seconds())
	m.set("fault.pairs_per_s", float64(pairs)/pairT.Seconds())
	m.set("fault.triples_per_s", float64(triples)/tripleT.Seconds())
	if ps.Total() > 0 {
		m.set("fault.pruned_frac", float64(ps.Pruned())/float64(ps.Total()))
	}
	return nil
}

// probeCampaign sweeps the inputs into a fresh store directory (the
// fallback for the cell and cache counters), then times plan
// digesting and Store.Lookup of every entry through a fresh Store.
func probeCampaign(inputs []input, scr string, tr *tracer, m layerMetrics) error {
	dir := filepath.Join(scr, "probe-store")
	defer os.RemoveAll(dir)
	jobs := corpusJobs(inputs)
	res, err := sweep(jobs, dir, tr)
	if err != nil {
		return err
	}
	var cells []time.Duration
	for _, c := range res.Results {
		cells = append(cells, c.Elapsed)
	}
	m.set("campaign.cell_ms", medianDuration(cells))
	setCache(m, res.Cache)

	plans := 0
	planT := timed(tr, "campaign.new_plan", func() {
		for _, j := range jobs {
			for order := 1; order <= 3; order++ {
				campaign.NewPlan(j.Campaign, campaign.Shard{}, order, 0)
				plans++
			}
		}
	})
	m.set("campaign.plan_per_s", float64(plans)/planT.Seconds())

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("probe store %s holds no entries", dir)
	}
	st, err := campaign.NewStore(dir)
	if err != nil {
		return err
	}
	hits := 0
	readT := timed(tr, "campaign.store_lookup", func() {
		for _, e := range entries {
			if _, ok := st.Lookup(strings.TrimSuffix(filepath.Base(e), ".json")); ok {
				hits++
			}
		}
	})
	if hits != len(entries) {
		return fmt.Errorf("fresh store answered %d of %d lookups", hits, len(entries))
	}
	m.set("campaign.store_read_per_s", float64(hits)/readT.Seconds())
	return nil
}

func setCache(m layerMetrics, c campaign.CacheStats) {
	if c.Hits+c.Misses > 0 {
		m.set("campaign.store_hit_frac", float64(c.Hits)/float64(c.Hits+c.Misses))
	} else {
		m.set("campaign.store_hit_frac", 0)
	}
	if c.Reused+c.Resimulated > 0 {
		m.set("campaign.memo_reuse_frac", float64(c.Reused)/float64(c.Reused+c.Resimulated))
	} else {
		m.set("campaign.memo_reuse_frac", 0)
	}
	m.set("campaign.resimulated", float64(c.Resimulated))
	m.set("campaign.write_errors", float64(c.WriteErrors))
}

// probePatch runs the order-2 Faulter+Patcher fixed point, timing its
// rounds between Log callbacks.
func probePatch(inputs []input, tr *tracer, m layerMetrics) error {
	var rounds []time.Duration
	iters, patched := 0, 0
	for _, in := range inputs {
		last := time.Now()
		opt := harden.FaulterPatcherOptions{Good: in.c.Good, Bad: in.c.Bad, Models: bothModels, Order: 2,
			Workers: numWorkers(), Log: func(string) {
				now := time.Now()
				rounds = append(rounds, now.Sub(last))
				last = now
			}}
		var res *harden.FaulterPatcherResult
		var err error
		tr.do("patch.faulter_patcher", func() { res, err = harden.FaulterPatcher(in.bin, opt) })
		if err != nil {
			return fmt.Errorf("%s: %w", in.c.Name, err)
		}
		iters += len(res.Iterations) + len(res.PairIterations)
		for _, it := range res.Iterations {
			patched += it.Patched
		}
		for _, it := range res.PairIterations {
			patched += it.Escalated
		}
	}
	m.set("patch.iterations", float64(iters))
	m.set("patch.sites_patched", float64(patched))
	m.set("patch.iteration_ms", meanMS(rounds))
	return nil
}

// probeBIR disassembles every input and times its reassembly, plus the
// reassembly of any hardened programs the replay produced; when the
// replay ran no VerifyBIR gate, it also proves the blanket order-2
// patterns of every input.
func probeBIR(inputs []input, hardened []*bir.Program, tr *tracer, m layerMetrics) error {
	progs := append([]*bir.Program(nil), hardened...)
	for _, in := range inputs {
		p, err := bir.Disassemble(in.bin)
		if err != nil {
			return fmt.Errorf("%s: %w", in.c.Name, err)
		}
		progs = append(progs, p)
	}
	var err error
	reT := timed(tr, "bir.reassemble", func() {
		for _, p := range progs {
			if _, e := p.Reassemble(); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("bir.reassemble_s", reT.Seconds())
	if m.has("static.verify_bir_s") {
		return nil
	}
	var vT time.Duration
	for _, in := range inputs {
		res, err := patch.HardenAll(in.bin, patch.StyleOrder2)
		if err != nil {
			return fmt.Errorf("%s: %w", in.c.Name, err)
		}
		vT += timed(tr, "static.verify_bir", func() { static.VerifyBIR(res.Program, birConfig()) })
	}
	m.set("static.verify_bir_s", vT.Seconds())
	return nil
}

// probeHybrid runs harden.Hybrid's stages one by one through lift,
// passes and lower (both modes), then the static proofs, emission and
// reload where the replay did not time them.
func probeHybrid(inputs []input, tr *tracer, m layerMetrics) error {
	var liftT, cleanT, hardT, lowerT, anT, covT, irT, emT, ldT time.Duration
	insts := 0
	for _, in := range inputs {
		for _, sw := range hybridModes {
			var lr *lift.Result
			var err error
			liftT += timed(tr, "lift.lift", func() { lr, err = lift.Lift(in.bin) })
			if err != nil {
				return fmt.Errorf("%s: %w", in.c.Name, err)
			}
			cleanT += timed(tr, "passes.cleanup", func() { err = passes.Run(lr.Module, passes.CleanupPipeline()...) })
			if err != nil {
				return err
			}
			hardT += timed(tr, "passes.harden", func() {
				ps := []passes.Pass{passes.BranchHarden{Stats: &passes.HardenStats{}}}
				if sw {
					ps = append(ps, passes.SkipWindowHarden{Stats: &passes.SkipWindowStats{}})
				}
				if err = passes.Run(lr.Module, ps...); err == nil {
					err = passes.Run(lr.Module, passes.PostHardenCleanup()...)
				}
			})
			if err != nil {
				return err
			}
			insts += lr.Module.NumInsts()
			var low *lower.Result
			lowerT += timed(tr, "lower.lower", func() { low, err = lower.Lower(lr, lower.Options{}) })
			if err != nil {
				return err
			}
			var a *static.Analysis
			anT += timed(tr, "static.analyze", func() { a, err = static.Analyze(low.Binary) })
			if err != nil {
				return err
			}
			covT += timed(tr, "static.coverage", func() { a.CheckCoverage() })
			if sw {
				irT += timed(tr, "static.verify_ir", func() { static.VerifyIR(lr.Module, irConfig()) })
			}
			var img []byte
			emT += timed(tr, "emit.image", func() { img, err = emit.Image(low.Binary) })
			if err != nil {
				return err
			}
			ldT += timed(tr, "elf.load", func() { _, err = elf.Load(img) })
			if err != nil {
				return err
			}
		}
	}
	m.set("lift.s", liftT.Seconds())
	m.set("passes.cleanup_s", cleanT.Seconds())
	m.set("passes.harden_s", hardT.Seconds())
	m.set("lower.s", lowerT.Seconds())
	m.set("ir.insts_after_harden", float64(insts))
	m.set("static.analyze_s", anT.Seconds())
	m.set("static.coverage_s", covT.Seconds())
	m.set("static.verify_ir_s", irT.Seconds())
	m.set("emit.image_s", emT.Seconds())
	m.set("elf.load_s", ldT.Seconds())
	return nil
}

func timed(tr *tracer, name string, f func()) time.Duration {
	start := time.Now()
	tr.do(name, f)
	return time.Since(start)
}

func stride[T any](xs []T, max int) []T {
	if len(xs) <= max {
		return xs
	}
	out := make([]T, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, xs[i*len(xs)/max])
	}
	return out
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Millisecond)
}

func numWorkers() int { return runtime.NumCPU() }
