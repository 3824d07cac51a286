package campaign_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/oracle"
)

// withDeadPage returns a copy of bin with one more executable page,
// never executed, after its last section: a different binary (so the
// store misses) that the cross-binary memo may answer from records
// whose code-page footprint avoids the new page.
func withDeadPage(bin *elf.Binary) *elf.Binary {
	end := uint64(0)
	for _, s := range bin.Sections {
		end = max(end, s.Addr+s.Size())
	}
	out := *bin
	out.Sections = append(slices.Clone(bin.Sections), &elf.Section{
		Name: ".dead", Addr: (end + 2*emu.PageSize - 1) &^ (emu.PageSize - 1),
		Data: []byte{0x0F, 0x0B}, Flags: elf.FlagRead | elf.FlagExec, // ud2
	})
	return &out
}

// TestCorpusFastVsSingleStepStore holds the memo-recording path to the
// emulator's fast-path contract: a pruned order 1-3 corpus sweep over
// every catalog case must give identical cells, identical memo
// accounting and byte-identical store files — the recorded code pages
// (Record.Pages) included — whether simulations run on the micro-op
// fast path or on the single-step interpreter. Each case chains its
// binary, a copy with a dead page (the memo answers from the recorded
// pages) and a source variant (new code: the memo re-simulates); a
// second chain runs the case's hybrid-hardened build and its dead-page
// copy, at a 200-fault cap.
func TestCorpusFastVsSingleStepStore(t *testing.T) {
	var jobs []campaign.CorpusJob
	chain := func(name string, c *cases.Case, maxFaults int, bins ...*elf.Binary) {
		for _, b := range bins {
			jobs = append(jobs, campaign.CorpusJob{
				Case: name,
				Campaign: fault.Campaign{
					Binary: b, Good: c.Good, Bad: c.Bad,
					Models:    []fault.Model{fault.ModelSkip, fault.ModelBitFlip},
					StepLimit: campaigntest.StepLimit, DedupSites: true, MaxFaults: maxFaults,
				},
			})
		}
	}
	for _, c := range cases.Corpus() {
		bin := c.MustBuild()
		chain(c.Name, c, 0, bin, withDeadPage(bin), oracle.Variants(c, 1, 1)[0].MustBuild())
		// The catalog binaries fit their code in one page, which every
		// run's prefix already holds; the hybrid-hardened builds span
		// several, so their records depend on the pages the injection
		// runs log.
		hr, err := harden.Hybrid(bin, harden.HybridOptions{SkipWindow: true})
		if err != nil {
			t.Fatal(err)
		}
		chain(c.Name+"/hybrid", c, 200, hr.Binary, withDeadPage(hr.Binary))
	}
	sweep := func(singleStep bool) (*campaign.CorpusResult, string) {
		dir := t.TempDir()
		st, err := campaign.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		js := append([]campaign.CorpusJob(nil), jobs...)
		for i := range js {
			js[i].Campaign.SingleStep = singleStep
		}
		res, err := campaign.RunCorpus(js, campaign.CorpusOptions{
			Options: campaign.Options{Prune: true, Store: st, MaxPairs: 128, MaxTriples: 256},
			Orders:  []int{1, 2, 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Errs() {
			t.Fatal(e)
		}
		return res, dir
	}
	fast, fastDir := sweep(false)
	slow, slowDir := sweep(true)

	campaigntest.AssertCorpusEqual(t, "fast vs single-step", slow, fast)
	for i := range slow.Results {
		s, f := slow.Results[i].Cache, fast.Results[i].Cache
		if s.Reused != f.Reused || s.Resimulated != f.Resimulated {
			t.Errorf("cell %d (%s/o%d): memo accounting single-step %+v, fast %+v",
				i, slow.Results[i].Case, slow.Results[i].Order, s, f)
		}
	}
	if slow.Cache.Reused == 0 || slow.Cache.Resimulated == 0 {
		t.Fatalf("memo accounting %+v: want both reuse and re-simulation", slow.Cache)
	}

	names, err := filepath.Glob(filepath.Join(slowDir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("single-step sweep stored no entries (%v)", err)
	}
	fastNames, _ := filepath.Glob(filepath.Join(fastDir, "*.json"))
	if len(fastNames) != len(names) {
		t.Fatalf("store holds %d entries fast, %d single-step", len(fastNames), len(names))
	}
	for _, name := range names {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fastDir, filepath.Base(name)))
		if err != nil {
			t.Fatalf("fast sweep lacks entry %s: %v", filepath.Base(name), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("store entry %s differs between fast path and single-step", filepath.Base(name))
		}
	}
}
