// The differential soundness harness for the fault-equivalence pruning
// pass: every cell of the (catalog case × registered model × order)
// matrix is executed exhaustively and pruned, and the reports must be
// bit-identical — the contract that makes -prune safe to use anywhere.
// The harness also pins the invariances the engine guarantees around
// pruning: worker count, shard decomposition, and warm-store replay.
//
// External test package: the harness consumes campaigntest, which
// imports campaign.
package campaign_test

import (
	"fmt"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// Matrix budgets: wide enough that every reduction fires on real
// catalog campaigns, small enough that the full matrix stays minutes,
// not hours.
const (
	diffMaxFaults = 400
	diffMaxPairs  = 256
)

// diffMatrix yields the harness's (case, models) cells: every catalog
// case crossed with every registered model singly. Short mode keeps
// the paper pair × two structurally distinct models as a smoke matrix;
// the dedicated non-short CI job runs the whole thing.
func diffMatrix(t *testing.T) (names []string, modelSets [][]fault.Model) {
	t.Helper()
	names = cases.Names()
	if len(names) < 5 {
		t.Fatalf("catalog has %d cases, want >= 5", len(names))
	}
	for _, m := range fault.RegisteredModels() {
		modelSets = append(modelSets, []fault.Model{m})
	}
	if testing.Short() {
		names = names[:2]
		modelSets = [][]fault.Model{{fault.ModelSkip}, {fault.ModelBitFlip}}
	}
	return names, modelSets
}

// TestPruneDifferentialOrder1: pruned order-1 campaigns are
// bit-identical to exhaustive ones across the whole matrix.
func TestPruneDifferentialOrder1(t *testing.T) {
	names, modelSets := diffMatrix(t)
	for _, name := range names {
		for _, models := range modelSets {
			label := fmt.Sprintf("%s/%v", name, models)
			c := campaigntest.CaseCampaign(t, name, models, diffMaxFaults)
			plain, err := campaign.Run(c, 1, campaign.Options{})
			if err != nil {
				t.Fatalf("%s: exhaustive: %v", label, err)
			}
			pruned, err := campaign.Run(c, 1, campaign.Options{Prune: true})
			if err != nil {
				t.Fatalf("%s: pruned: %v", label, err)
			}
			campaigntest.AssertReportsEqual(t, label, plain.Report, pruned.Report)
		}
	}
}

// TestPruneDifferentialOrder2: pruned order-2 campaigns are
// bit-identical to exhaustive ones across the whole matrix, and the
// pruning accounting covers every pair.
func TestPruneDifferentialOrder2(t *testing.T) {
	names, modelSets := diffMatrix(t)
	for _, name := range names {
		for _, models := range modelSets {
			label := fmt.Sprintf("%s/%v", name, models)
			c := campaigntest.CaseCampaign(t, name, models, diffMaxFaults)
			opt := campaign.Options{MaxPairs: diffMaxPairs}
			plain, err := campaign.Run(c, 2, opt)
			if err != nil {
				t.Fatalf("%s: exhaustive: %v", label, err)
			}
			opt.Prune = true
			pruned, err := campaign.Run(c, 2, opt)
			if err != nil {
				t.Fatalf("%s: pruned: %v", label, err)
			}
			campaigntest.AssertOrder2Equal(t, label, plain.Order2, pruned.Order2)
			if pruned.Prune == nil {
				t.Fatalf("%s: pruned run reported no PruneStats", label)
			}
			want := len(plain.Report.Injections) + len(plain.Order2.Pairs)
			if got := pruned.Prune.Total(); got != want {
				t.Fatalf("%s: prune stats cover %d of %d injections", label, got, want)
			}
		}
	}
}

// TestPruneWorkerShardInvariance: one pruned campaign, many execution
// shapes — 1 worker, 8 workers, and a 3-shard decomposition — all
// bit-identical to the exhaustive unsharded run.
func TestPruneWorkerShardInvariance(t *testing.T) {
	c := campaigntest.CaseCampaign(t, "pincheck", fault.RegisteredModels(), diffMaxFaults)
	baseOpt := campaign.Options{MaxPairs: diffMaxPairs}
	res, err := campaign.Run(c, 2, baseOpt)
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Order2
	for _, workers := range []int{1, 8} {
		opt := baseOpt
		opt.Prune = true
		opt.Workers = workers
		pruned, err := campaign.Run(c, 2, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		campaigntest.AssertOrder2Equal(t, fmt.Sprintf("workers=%d", workers), plain, pruned.Order2)
	}
	const n = 3
	shards := make([]*campaign.Order2Report, n)
	for i := 0; i < n; i++ {
		opt := baseOpt
		opt.Prune = true
		opt.Shard = campaign.Shard{Index: i, Count: n}
		res, err := campaign.Run(c, 2, opt)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards[i] = res.Order2
	}
	merged, err := campaign.MergeOrder2(shards)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "3-shard merge", plain, merged)
}

// TestPruneWarmStoreReplay: a pruned campaign stored cold replays
// bit-identically warm — and exhaustive and pruned executions share
// the plan key, so a warm exhaustive run is answered by a cold pruned
// one and vice versa.
func TestPruneWarmStoreReplay(t *testing.T) {
	c := campaigntest.CaseCampaign(t, "bootloader", []fault.Model{fault.ModelSkip, fault.ModelRegFlip}, diffMaxFaults)
	st, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := campaign.Options{MaxPairs: diffMaxPairs, Prune: true, Store: st}
	cold, err := campaign.Run(c, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses == 0 {
		t.Fatal("cold pruned run reported no store misses")
	}
	warm, err := campaign.Run(c, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "warm replay", cold.Order2, warm.Order2)
	if warm.Cache.Hits == 0 {
		t.Fatal("warm pruned run reported no store hits")
	}
	// Cross-mode: an exhaustive run against the same store replays the
	// pruned run's entries — one plan key for both execution modes.
	optPlain := campaign.Options{MaxPairs: diffMaxPairs, Store: st}
	crossed, err := campaign.Run(c, 2, optPlain)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "cross-mode replay", cold.Order2, crossed.Order2)
	if crossed.Cache.Hits == 0 {
		t.Fatal("exhaustive warm run did not hit the pruned run's entries")
	}
}

// TestPruneBudgetGateDifferential: with an injection budget short
// enough that the static budget gate fires, pruned and exhaustive
// order-1 reports still match bit for bit.
func TestPruneBudgetGateDifferential(t *testing.T) {
	c := campaigntest.CaseCampaign(t, "pincheck", []fault.Model{fault.ModelSkip}, 0)
	// A budget of a few steps lands inside the fault list's trace-index
	// range, so later faults hit the gate while earlier ones simulate.
	// The gate lives on the plain-simulation path (RunAll without a
	// store), not the evidence-recording one — see Pruner.SimulateRecord.
	c.InjectionStepLimit = 10
	plain, err := campaign.Run(c, 1, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := campaign.RunAll([]campaign.Job{{Name: "gate", Campaign: c}}, 1, campaign.Options{Prune: true})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	campaigntest.AssertReportsEqual(t, "short budget", plain.Report, results[0].Report)
	st := results[0].Prune
	if st == nil || st.StaticBudget == 0 {
		t.Fatalf("budget gate never fired (stats %+v)", st)
	}
	if st.Simulated == 0 {
		t.Fatalf("every fault gated — the budget misses the trace (stats %+v)", st)
	}
}

// TestPruneStaticInertDifferential: the inert-window dataflow tier
// fires on hybrid-hardened catalog binaries under the skip models it
// covers, and the pruned reports stay bit-identical to exhaustive —
// orders 1 and 2 here, order 3 below via direct per-triple validation.
// Hardened artifacts are the tier's home turf: the passes insert the
// NOP spacers, fall-through checks and dead re-computations whose skip
// windows the screen proves inert.
func TestPruneStaticInertDifferential(t *testing.T) {
	models := []fault.Model{fault.ModelSkip, fault.ModelMultiSkip}
	names := []string{"pincheck", "bootloader"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		// The eligible windows (hardening-inserted spacers and
		// fall-through checks) sit deeper in the trace than the default
		// differential budget reaches, so this test runs a wider fault
		// cap — 800 is the smallest round budget where the tier fires
		// on every hardened catalog case under both skip models.
		c := campaigntest.HardenedCampaign(t, name, models, 2*diffMaxFaults)
		plain, err := campaign.Run(c, 1, campaign.Options{})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", name, err)
		}
		results := campaign.RunAll([]campaign.Job{{Name: name, Campaign: c}}, 1, campaign.Options{Prune: true})
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		campaigntest.AssertReportsEqual(t, name+" order-1", plain.Report, results[0].Report)
		if st := results[0].Prune; st == nil || st.StaticInert == 0 {
			t.Errorf("%s: inert tier never fired on the hardened binary (stats %+v)", name, results[0].Prune)
		}

		opt := campaign.Options{MaxPairs: diffMaxPairs}
		plain2, err := campaign.Run(c, 2, opt)
		if err != nil {
			t.Fatalf("%s: exhaustive order-2: %v", name, err)
		}
		opt.Prune = true
		pruned2, err := campaign.Run(c, 2, opt)
		if err != nil {
			t.Fatalf("%s: pruned order-2: %v", name, err)
		}
		campaigntest.AssertOrder2Equal(t, name+" order-2", plain2.Order2, pruned2.Order2)
		if pruned2.Prune == nil || pruned2.Prune.StaticInert == 0 {
			t.Errorf("%s: inert tier never fired at order 2 (stats %+v)", name, pruned2.Prune)
		}
	}
}

// TestPruneStaticInertOrder3: a pruned order-3 campaign over a
// hardened binary with skip models — every triple outcome re-validated
// by direct simulation, lower stages bit-identical to a plain order-2
// run, and the transparent-first fast path accounted for.
func TestPruneStaticInertOrder3(t *testing.T) {
	maxTriples := 256
	if testing.Short() {
		maxTriples = 64
	}
	c := campaigntest.HardenedCampaign(t, "pincheck", []fault.Model{fault.ModelSkip, fault.ModelMultiSkip}, diffMaxFaults)
	res, err := campaign.Run(c, 3, campaign.Options{MaxPairs: diffMaxPairs, MaxTriples: maxTriples})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Order3
	if len(rep.Triples) == 0 {
		t.Fatal("order-3 campaign enumerated no triples")
	}
	plain2, err := campaign.Run(c, 2, campaign.Options{MaxPairs: diffMaxPairs})
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "hardened order-3 lower stages", plain2.Order2, res.Order2)

	s, err := fault.NewSession(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range rep.Triples {
		if want := s.SimulateFaults(ti.Triple.First, ti.Triple.Second, ti.Triple.Third); ti.Outcome != want {
			t.Fatalf("triple %d (%v): campaign says %v, direct simulation %v",
				i, ti.Triple, ti.Outcome, want)
		}
	}
}

// TestRunOrder3Differential: the pruned order-3 campaign classifies
// every triple exactly as direct per-triple simulation, and its lower
// stages match a plain order-2 run.
func TestRunOrder3Differential(t *testing.T) {
	maxTriples := 512
	if testing.Short() {
		maxTriples = 128
	}
	c := campaigntest.CaseCampaign(t, "pincheck", []fault.Model{fault.ModelSkip, fault.ModelBitFlip}, diffMaxFaults)
	res, err := campaign.Run(c, 3, campaign.Options{MaxPairs: diffMaxPairs, MaxTriples: maxTriples})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Order3
	if len(rep.Triples) == 0 {
		t.Fatal("order-3 campaign enumerated no triples")
	}
	if res.Prune == nil || res.Prune.Total() == 0 {
		t.Fatal("order-3 campaign reported no pruning accounting")
	}

	plain2, err := campaign.Run(c, 2, campaign.Options{MaxPairs: diffMaxPairs})
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "order-3 lower stages", plain2.Order2, res.Order2)

	s, err := fault.NewSession(c)
	if err != nil {
		t.Fatal(err)
	}
	var tally fault.Tally
	for i, ti := range rep.Triples {
		if want := s.SimulateFaults(ti.Triple.First, ti.Triple.Second, ti.Triple.Third); ti.Outcome != want {
			t.Fatalf("triple %d (%v): campaign says %v, direct simulation %v",
				i, ti.Triple, ti.Outcome, want)
		}
		tally[ti.Outcome]++
	}
	if tally != rep.TripleTally {
		t.Fatalf("triple tally %v inconsistent with the %d triples", rep.TripleTally, len(rep.Triples))
	}

	// Warm-store replay of the triple stage.
	st, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := campaign.Options{MaxPairs: diffMaxPairs, MaxTriples: maxTriples, Store: st}
	cold, err := campaign.Run(c, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := campaign.Run(c, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	campaigntest.AssertOrder2Equal(t, "order-3 store lower stages", cold.Order2, warm.Order2)
	for i := range cold.Order3.Triples {
		if cold.Order3.Triples[i] != warm.Order3.Triples[i] {
			t.Fatalf("warm triple %d differs from cold", i)
		}
	}
	if warm.Cache.Hits == 0 {
		t.Fatal("warm order-3 run reported no store hits")
	}
}

// TestRunOrder3DifferentialClassHits: multi-instruction skip on
// pincheck at the full fault list and default budgets is the catalog
// cell where equal first-fault states recur across triple groups, so
// the order-3 tree answers continuations from the class cache (the
// order-3 run's ClassEquiv exceeds the order-2 run's). Every triple
// must still classify exactly as direct per-triple simulation.
func TestRunOrder3DifferentialClassHits(t *testing.T) {
	c := campaigntest.CaseCampaign(t, "pincheck", []fault.Model{fault.ModelMultiSkip}, 0)
	res2, err := campaign.Run(c, 2, campaign.Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(c, 3, campaign.Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prune == nil || res2.Prune == nil || res.Prune.ClassEquiv <= res2.Prune.ClassEquiv {
		t.Fatalf("order-3 tree drew nothing from the class cache (order 2 %+v, order 3 %+v)", res2.Prune, res.Prune)
	}
	campaigntest.AssertOrder2Equal(t, "order-3 lower stages", res2.Order2, res.Order2)

	s, err := fault.NewSession(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range res.Order3.Triples {
		if want := s.SimulateFaults(ti.Triple.First, ti.Triple.Second, ti.Triple.Third); ti.Outcome != want {
			t.Fatalf("triple %d (%v): campaign says %v, direct simulation %v",
				i, ti.Triple, ti.Outcome, want)
		}
	}
}
