package harden

import (
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// TestHybridSkipWindowBehaviour: the order-2 Hybrid output (branch
// hardening + skip-window pass) must still satisfy the case oracle.
func TestHybridSkipWindowBehaviour(t *testing.T) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	res, err := Hybrid(bin, HybridOptions{SkipWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(res.Binary); err != nil {
		t.Fatal(err)
	}
	if res.SWStats.BlocksInstrumented == 0 || res.SWStats.Duplicated == 0 {
		t.Errorf("skip-window pass did nothing: %+v", res.SWStats)
	}
	plain, err := Hybrid(bin, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead() <= plain.Overhead() {
		t.Errorf("skip-window overhead %.1f%% not above plain hybrid %.1f%%",
			res.Overhead()*100, plain.Overhead()*100)
	}
	t.Logf("pincheck hybrid+skipwindow: overhead %.1f%% (plain %.1f%%), %+v",
		res.Overhead()*100, plain.Overhead()*100, res.SWStats)
}

// TestHybridSkipWindowOrder2 is the tentpole claim on the Hybrid
// substrate: the skip-window-hardened binary resists order-2 skip pairs
// and the sustained multi-instruction-skip model.
func TestHybridSkipWindowOrder2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs hybrid pipelines plus order-2 campaigns; run without -short")
	}
	c := cases.Pincheck()
	bin := c.MustBuild()
	res, err := Hybrid(bin, HybridOptions{SkipWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	camp := fault.Campaign{
		Binary: res.Binary, Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip}, StepLimit: 32 << 20, DedupSites: true,
	}
	run, err := campaign.Run(camp, 2, campaign.Options{MaxPairs: 1024})
	if err != nil {
		t.Fatal(err)
	}
	o2 := run.Order2
	if n := o2.Solo.Count(fault.OutcomeSuccess); n != 0 {
		t.Errorf("%d order-1 skip successes on skip-window hybrid", n)
	}
	if n := o2.PairCount(fault.OutcomeSuccess); n != 0 {
		t.Errorf("%d order-2 pair successes on skip-window hybrid (of %d pairs)",
			n, len(o2.Pairs))
	}

	camp.Models = []fault.Model{fault.ModelMultiSkip}
	run, err = campaign.Run(camp, 1, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := run.Report
	if n := ms.Count(fault.OutcomeSuccess); n != 0 {
		t.Errorf("%d multi-skip successes on skip-window hybrid (of %d)",
			n, len(ms.Injections))
	}
	t.Logf("pincheck hybrid+skipwindow: pairs %d success %d, multi-skip %d/%d",
		len(o2.Pairs), o2.PairCount(fault.OutcomeSuccess),
		ms.Count(fault.OutcomeSuccess), len(ms.Injections))
}
