package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/fault"
)

// corpusStepLimit is the reference-run budget `r2r corpus` uses.
const corpusStepLimit = 32 << 20

var bothModels = []fault.Model{fault.ModelSkip, fault.ModelBitFlip}

// corpusWL is the `r2r corpus -order 3 -prune -cache-dir DIR` shape
// over the seeded inputs. Cold passes sweep into a fresh directory;
// warm passes replay, through a fresh Store, the directory set-up
// filled.
type corpusWL struct {
	warm   bool
	scr    string // scratch directory owned by this workload
	inputs []input
	jobs   []campaign.CorpusJob
	dir    string // warm: the store directory set-up filled
	fresh  int    // cold: store directories created so far

	// want holds the expected digest of every cell's outcomes,
	// keyed "case/oN/stage": orders 1-2 from the SingleStep reference
	// (cold) or the filling run (warm); order-3 triples from the first
	// pass (cold) or the filling run (warm).
	want map[string]string
	last *campaign.CorpusResult
}

func corpusJobs(inputs []input) []campaign.CorpusJob {
	jobs := make([]campaign.CorpusJob, len(inputs))
	for i, in := range inputs {
		jobs[i] = campaign.CorpusJob{
			Case: in.c.Name,
			Campaign: fault.Campaign{
				Binary: in.bin, Good: in.c.Good, Bad: in.c.Bad,
				Models: bothModels, StepLimit: corpusStepLimit, DedupSites: true,
			},
		}
	}
	return jobs
}

func corpusOptions(st *campaign.Store) campaign.CorpusOptions {
	return campaign.CorpusOptions{
		Options: campaign.Options{Workers: numWorkers(), Prune: true, Store: st},
		Orders:  []int{1, 2, 3},
	}
}

// sweep runs the corpus once into dir through a fresh write-behind
// store, closing it (which flushes pending writes) before returning.
func sweep(jobs []campaign.CorpusJob, dir string, tr *tracer) (*campaign.CorpusResult, error) {
	var res *campaign.CorpusResult
	var err error
	tr.do("campaign.run_corpus", func() {
		var st *campaign.Store
		if st, err = campaign.NewStore(dir); err != nil {
			return
		}
		st.EnableWriteBehind(0, 0)
		res, err = campaign.RunCorpus(jobs, corpusOptions(st))
		st.Close()
	})
	if err != nil {
		return nil, err
	}
	if errs := res.Errs(); len(errs) > 0 {
		return nil, errs[0]
	}
	return res, nil
}

func (w *corpusWL) setup(seed uint64, tr *tracer) error {
	inputs, err := makeInputs(seed, corpusVariants, tr)
	if err != nil {
		return err
	}
	w.inputs, w.jobs = inputs, corpusJobs(inputs)
	if !w.warm {
		return nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.dir = filepath.Join(w.scr, fmt.Sprintf("fill-%d", time.Now().UnixNano()))
	res, err := sweep(w.jobs, w.dir, tr)
	if err != nil {
		return err
	}
	w.want = corpusDigests(res, 3)
	return nil
}

// prepare computes the cold workload's reference outside the timed
// passes: orders 1-2 exhaustively, on the single-step interpreter,
// with no pruning and no store.
func (w *corpusWL) prepare() error {
	if w.warm {
		return nil
	}
	jobs := corpusJobs(w.inputs)
	for i := range jobs {
		jobs[i].Campaign.SingleStep = true
	}
	res, err := campaign.RunCorpus(jobs, campaign.CorpusOptions{
		Options: campaign.Options{Workers: numWorkers()},
		Orders:  []int{1, 2},
	})
	if err != nil {
		return err
	}
	if errs := res.Errs(); len(errs) > 0 {
		return errs[0]
	}
	w.want = corpusDigests(res, 2)
	return nil
}

func (w *corpusWL) pass(tr *tracer) (*passResult, error) {
	dir := w.dir
	if !w.warm {
		w.fresh++
		dir = filepath.Join(w.scr, fmt.Sprintf("cold-%d", w.fresh))
	}
	t0 := time.Now()
	res, err := sweep(w.jobs, dir, tr)
	wall := time.Since(t0)
	if !w.warm {
		os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	w.last = res
	p := &passResult{wall: wall, binaries: len(w.inputs)}
	for _, c := range res.Results {
		p.latencies = append(p.latencies, c.Elapsed)
		p.outcomes += cellOutcomes(c)
	}
	return p, nil
}

// check compares every cell against the expected digests; a cold run's
// first pass pins the order-3 triples for the passes after it.
func (w *corpusWL) check(*passResult) (attempted, failed int) {
	got := corpusDigests(w.last, 3)
	for _, c := range w.last.Results {
		attempted++
		ok := true
		for _, stage := range []string{"solo", "pairs", "triples"} {
			k := cellKey(c.Case, c.Order, stage)
			g, has := got[k]
			if !has {
				continue
			}
			ref := k
			if stage != "triples" && c.Order == 3 && !w.warm {
				ref = cellKey(c.Case, 2, stage) // the reference stops at order 2
			}
			want, pinned := w.want[ref]
			switch {
			case !pinned && stage == "triples" && !w.warm:
				w.want[ref] = g
			case g != want:
				ok = false
			}
		}
		if w.warm && c.Cache.Misses != 0 {
			ok = false
		}
		if !ok {
			failed++
		}
	}
	return attempted, failed
}

func (w *corpusWL) quality() quality {
	d := corpusDigests(w.last, 3)
	h := sha256.New()
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, d[k])
	}
	q := quality{digest: hex.EncodeToString(h.Sum(nil))}
	for _, c := range w.last.Results {
		if c.Report != nil {
			q.successes += len(c.Report.Successful())
		}
		if c.Order2 != nil {
			q.successes += c.Order2.PairCount(fault.OutcomeSuccess)
		}
		if c.Order3 != nil {
			q.successes += c.Order3.TripleCount(fault.OutcomeSuccess)
		}
	}
	return q
}

func cellOutcomes(c campaign.CorpusCaseResult) int {
	n := 0
	if c.Report != nil {
		n += len(c.Report.Injections)
	}
	if c.Order2 != nil {
		n += len(c.Order2.Pairs)
	}
	if c.Order3 != nil {
		n += len(c.Order3.Triples)
	}
	return n
}

func cellKey(name string, order int, stage string) string {
	return fmt.Sprintf("%s/o%d/%s", name, order, stage)
}

// corpusDigests hashes each cell's outcomes per stage, up to maxOrder.
func corpusDigests(res *campaign.CorpusResult, maxOrder int) map[string]string {
	d := map[string]string{}
	for _, c := range res.Results {
		if c.Order > maxOrder {
			continue
		}
		if c.Report != nil {
			h := sha256.New()
			for _, in := range c.Report.Injections {
				writeFault(h, in.Fault)
				fmt.Fprintf(h, "=%d\n", in.Outcome)
			}
			d[cellKey(c.Case, c.Order, "solo")] = hex.EncodeToString(h.Sum(nil))
		}
		if c.Order2 != nil {
			h := sha256.New()
			for _, in := range c.Order2.Pairs {
				writeFault(h, in.Pair.First)
				writeFault(h, in.Pair.Second)
				fmt.Fprintf(h, "=%d\n", in.Outcome)
			}
			d[cellKey(c.Case, c.Order, "pairs")] = hex.EncodeToString(h.Sum(nil))
		}
		if c.Order3 != nil {
			h := sha256.New()
			for _, in := range c.Order3.Triples {
				writeFault(h, in.Triple.First)
				writeFault(h, in.Triple.Second)
				writeFault(h, in.Triple.Third)
				fmt.Fprintf(h, "=%d\n", in.Outcome)
			}
			d[cellKey(c.Case, c.Order, "triples")] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return d
}

func writeFault(h hash.Hash, f fault.Fault) {
	fmt.Fprintf(h, "%d|%d|%x|%d|%d|%d|%t|%d|%d;",
		f.Model, f.TraceIndex, f.Addr, f.Op, f.Cond, f.Bit, f.Transient, f.Reg, f.Window)
}
