// Command perfbench is the repository's benchmark: four seeded
// workloads driven through the library's entry points, every output
// checked, end-to-end metrics measured untraced and per-layer metrics
// from a separate traced run. See README.md.
//
//	perfbench --workload corpus-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line
// before it is the full record (host fingerprint, repeat counts,
// medians and quartiles, workload sizes).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Input sizes: catalog cases plus this many oracle.Variants survivors
// of each. The corpus workloads simulate every fault of every binary,
// so they take fewer binaries than the hardening workloads.
const (
	corpusVariants = 3
	patchVariants  = 0
	hybridVariants = 7
)

// A run builds its inputs at least minSetups times and until
// setupBudget has passed; setup_s is the median.
const (
	minSetups   = 3
	setupBudget = time.Second
)

// minPasses is the fewest timed passes a run makes, however long they
// take.
const minPasses = 3

type workload interface {
	// setup builds the inputs from the seed (and, for corpus-warm,
	// fills the store); it is what setup_s times.
	setup(seed uint64, tr *tracer) error
	// prepare computes check references outside the timed passes.
	prepare() error
	// pass runs the workload once over its inputs.
	pass(tr *tracer) (*passResult, error)
	// check verifies the latest pass's outputs.
	check(*passResult) (attempted, failed int)
	// quality measures the outputs of the first pass.
	quality() quality
}

type passResult struct {
	wall      time.Duration
	alloc     uint64
	latencies []time.Duration // per corpus cell, or per binary
	binaries  int
	outcomes  int // classified fault outcomes
}

// quality is the deterministic quality of a workload's outputs.
type quality struct {
	overheadPct        float64 // code size, hardened against original
	runtimeOverheadPct float64 // emulated steps on the good input
	successes          int     // successful faults, pairs and triples found or left
	findings           int     // static verifier findings
	digest             string  // hash of every output, comparable across runs with one seed
}

// Setup and probe spans carry these pass numbers; traced replay passes
// are numbered from 1.
const (
	setupPass = -1
	probePass = -2
)

func newWorkload(name, scr string) (workload, error) {
	switch name {
	case "corpus-cold":
		return &corpusWL{scr: scr}, nil
	case "corpus-warm":
		return &corpusWL{scr: scr, warm: true}, nil
	case "patch":
		return &patchWL{hardenWL: hardenWL{variants: patchVariants}}, nil
	case "hybrid-verify":
		return &hybridWL{hardenWL{variants: hybridVariants}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q: want corpus-cold, corpus-warm, patch or hybrid-verify", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, printed before the result.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Binaries int                `json:"binaries"`
	Outcomes int                `json:"outcomes_per_pass"`
	Passes   int                `json:"passes"`
	Repeats  map[string]summary `json:"repeats"`
	Tail     tail               `json:"latency_tail"`
	Metrics  map[string]metric  `json:"metrics"`
	Outputs  string             `json:"outputs_digest"`
	Spans    string             `json:"spans,omitempty"`
}

func main() {
	name := flag.String("workload", "", "corpus-cold, corpus-warm, patch or hybrid-verify")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time per run")
	traceOn := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build", "perfbench")
	scr := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scr, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scr)
	w, err := newWorkload(name, scr)
	if err != nil {
		return err
	}
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Host: fingerprint(root), Repeats: map[string]summary{}, Metrics: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.pass = setupPass
	}

	var setups []float64
	for setupStart := time.Now(); len(setups) < minSetups || time.Since(setupStart) < setupBudget; {
		runtime.GC()
		start := time.Now()
		if err := w.setup(seed, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rec.Repeats["setup_s"] = summarize(setups)
	if err := w.prepare(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	// The first pass warms caches and pins the outputs later passes
	// must reproduce; it is checked but not timed.
	res := result{Metrics: map[string]metric{}}
	first, err := w.pass(nil)
	if err != nil {
		return err
	}
	a, f := w.check(first)
	res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	rec.Binaries, rec.Outcomes = first.binaries, first.outcomes

	var plain, withSpans []*passResult
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(plain) < minPasses || time.Now().Before(deadline) {
		p, err := measure(w, nil)
		if err != nil {
			return err
		}
		plain = append(plain, p)
		a, f := w.check(p)
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		if traced {
			tr.pass = len(withSpans) + 1
			p, err := measure(w, tr)
			if err != nil {
				return err
			}
			withSpans = append(withSpans, p)
			a, f := w.check(p)
			res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		}
	}
	rec.Passes = len(plain)
	res.Correct = res.Failed == 0

	// The tail percentile is fixed by the sample count of minPasses
	// passes, so it does not move with how many passes a run fits in.
	e2e := endToEnd(plain, len(first.latencies)*minPasses, rec.Repeats["setup_s"].Median, rec.Repeats, &rec.Tail)
	q := w.quality()
	rec.Outputs = q.digest
	// The output metrics read 0 on some workloads, so they are printed
	// in every record but reported only as per-layer metrics.
	outputs := map[string]metric{
		"outcomes_per_s":       {float64(first.outcomes) / e2e["wall_s"].Value, "1/s"},
		"overhead_pct":         {q.overheadPct, "%"},
		"runtime_overhead_pct": {q.runtimeOverheadPct, "%"},
		"residual_successes":   {float64(q.successes), "count"},
		"verify_findings":      {float64(q.findings), "count"},
		"failed_frac":          {float64(res.Failed) / float64(res.Attempted), "1"},
	}
	if !traced {
		res.Metrics = e2e
		for k, v := range e2e {
			rec.Metrics[k] = v
		}
		for k, v := range outputs {
			rec.Metrics[k] = v
		}
		return printResult(rec, res)
	}

	m, err := layerRun(w, scr, tr, withSpans, len(setups))
	if err != nil {
		return err
	}
	m["trace.overhead_s"] = summarize(walls(withSpans)).Median - e2e["wall_s"].Value
	for k, v := range outputs {
		m[k] = v.Value
	}
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
		rec.Metrics[pl.name] = metric{v, pl.unit}
	}
	rec.Spans = filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(rec.Spans); err != nil {
		return err
	}
	return printResult(rec, res)
}

// measure runs one pass from a collected heap and records its wall
// time and allocation.
func measure(w workload, tr *tracer) (*passResult, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	p, err := w.pass(tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - before
	return p, nil
}

func walls(ps []*passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// endToEnd reduces the untraced passes to the end-to-end metrics:
// medians over passes, and latency percentiles over every cell or
// binary of every pass.
func endToEnd(ps []*passResult, tailBase int, setup float64, rep map[string]summary, t *tail) map[string]metric {
	var lat []time.Duration
	allocs := make([]float64, len(ps))
	rates := make([]float64, len(ps))
	for i, p := range ps {
		lat = append(lat, p.latencies...)
		allocs[i] = float64(p.alloc) / 1e6
		rates[i] = float64(p.binaries) / p.wall.Seconds()
	}
	rep["wall_s"] = summarize(walls(ps))
	rep["alloc_mb"] = summarize(allocs)
	rep["binaries_per_s"] = summarize(rates)
	*t = latencyTail(lat, tailBase)
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"wall_s":          {rep["wall_s"].Median, "s"},
		"binaries_per_s":  {rep["binaries_per_s"].Median, "1/s"},
		"latency_ms_p50":  {medianDuration(lat), "ms"},
		"latency_ms_tail": {t.ValueMS, "ms"},
		"alloc_mb":        {rep["alloc_mb"].Median, "MB"},
	}
}

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"emu.steps_per_s.fast", "1/s"},
	{"emu.steps_per_s.record", "1/s"},
	{"emu.steps_per_s.single", "1/s"},
	{"emu.alloc_bytes_per_sim", "B"},
	{"fault.session_s", "s"},
	{"fault.sims_per_s", "1/s"},
	{"fault.simrec_per_s", "1/s"},
	{"fault.pairs_per_s", "1/s"},
	{"fault.triples_per_s", "1/s"},
	{"fault.pruned_frac", "1"},
	{"campaign.cell_ms", "ms"},
	{"campaign.plan_per_s", "1/s"},
	{"campaign.store_read_per_s", "1/s"},
	{"campaign.store_hit_frac", "1"},
	{"campaign.memo_reuse_frac", "1"},
	{"campaign.resimulated", "count"},
	{"campaign.write_errors", "count"},
	{"patch.iterations", "count"},
	{"patch.sites_patched", "count"},
	{"patch.iteration_ms", "ms"},
	{"bir.reassemble_s", "s"},
	{"lift.s", "s"},
	{"passes.cleanup_s", "s"},
	{"passes.harden_s", "s"},
	{"lower.s", "s"},
	{"ir.insts_after_harden", "count"},
	{"static.analyze_s", "s"},
	{"static.coverage_s", "s"},
	{"static.verify_ir_s", "s"},
	{"static.verify_bir_s", "s"},
	{"emit.image_s", "s"},
	{"elf.load_s", "s"},
	{"asm.assemble_s", "s"},
	{"oracle.variants_s", "s"},
	{"trace.overhead_s", "s"},
	{"outcomes_per_s", "1/s"},
	{"overhead_pct", "%"},
	{"runtime_overhead_pct", "%"},
	{"residual_successes", "count"},
	{"verify_findings", "count"},
	{"failed_frac", "1"},
}

func printResult(rec record, res result) error {
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if res.Attempted < 1 {
		return errors.New("no output was checked")
	}
	fmt.Printf("%s\n%s\n", recLine, resLine)
	return nil
}
