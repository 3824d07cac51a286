package experiments

import (
	"testing"

	"github.com/r2r/reinforce/internal/fault"
)

func TestTableIV(t *testing.T) {
	tab, data, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	// Shape: before is a bare compare+branch; after grows ~10x.
	sum := func(m map[string]int) int {
		n := 0
		for _, v := range m {
			n += v
		}
		return n
	}
	before, after := sum(data.IRBefore), sum(data.IRAfter)
	if before == 0 || after < 5*before {
		t.Errorf("IR growth %d -> %d: expected ~10x", before, after)
	}
	// Algorithm 1's fingerprint: zext, sub, and, or appear.
	for _, k := range []string{"zext", "sub", "and", "or"} {
		if data.IRAfter[k] <= data.IRBefore[k] {
			t.Errorf("hardening added no %s (Algorithm 1 fingerprint)", k)
		}
	}
	x86Before, x86After := sum(data.X86Before), sum(data.X86After)
	if x86After < 5*x86Before {
		t.Errorf("x86 growth %d -> %d: expected ~10x", x86Before, x86After)
	}
}

func TestTableV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both hardening pipelines on both cases; run without -short")
	}
	tab, data, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(data) != 2 {
		t.Fatalf("rows = %d", len(data))
	}
	for _, d := range data {
		// Core shape of Table V: Hybrid costs several times more than
		// the targeted Faulter+Patcher, and both stay under blanket
		// duplication (300%).
		if d.FaulterPatcher <= 0 || d.Hybrid <= 0 {
			t.Errorf("%s: non-positive overheads: %+v", d.Case, d)
		}
		if d.Hybrid <= d.FaulterPatcher {
			t.Errorf("%s: hybrid (%.1f%%) not costlier than F+P (%.1f%%)",
				d.Case, d.Hybrid, d.FaulterPatcher)
		}
		if d.FaulterPatcher >= PaperDuplicationMinPct {
			t.Errorf("%s: F+P overhead %.1f%% at duplication level", d.Case, d.FaulterPatcher)
		}
	}
}

func TestClaimSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both hardening pipelines plus campaigns; run without -short")
	}
	tab, data, err := ClaimSkip()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	for _, d := range data {
		if d.PointsBefore == 0 {
			t.Errorf("%s/%s: no baseline skip vulnerabilities", d.Case, d.Pipeline)
		}
		if d.PointsAfter != 0 {
			t.Errorf("%s/%s: %d skip vulnerabilities remain", d.Case, d.Pipeline, d.PointsAfter)
		}
	}
}

func TestClaimBitflip(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive bit-flip sweeps over hardened binaries; run without -short")
	}
	tab, data, err := ClaimBitflip()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	for _, d := range data {
		if d.PointsBefore == 0 {
			t.Errorf("%s/%s: no baseline bitflip vulnerabilities", d.Case, d.Pipeline)
			continue
		}
		reduction := 1 - float64(d.PointsAfter)/float64(d.PointsBefore)
		if reduction < PaperBitflipReduction {
			t.Errorf("%s/%s: bitflip reduction %.0f%% below the paper's 50%% (%d -> %d)",
				d.Case, d.Pipeline, reduction*100, d.PointsBefore, d.PointsAfter)
		}
	}
}

func TestClaimClass(t *testing.T) {
	tab, data, err := ClaimClass()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	for _, d := range data {
		if d.Counts[fault.ClassOther] != 0 {
			t.Errorf("%s: %d vulnerable sites outside the mov/cmp/branch cluster",
				d.Case, d.Counts[fault.ClassOther])
		}
		total := 0
		for _, n := range d.Counts {
			total += n
		}
		if total == 0 {
			t.Errorf("%s: no vulnerable sites at all", d.Case)
		}
	}
}

func TestClaimDup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every rewriting pipeline on both cases; run without -short")
	}
	tab, data, err := ClaimDup()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	for _, d := range data {
		// Same-substrate orderings: targeted beats blanket on the
		// reassembly substrate; branch hardening beats whole-program
		// duplication on the IR substrate.
		if d.FPPct >= d.DupPct {
			t.Errorf("%s: targeted F+P %.1f%% not below blanket duplication %.1f%%",
				d.Case, d.FPPct, d.DupPct)
		}
		if d.HybridPct >= d.DupIRPct {
			t.Errorf("%s: branch hardening %.1f%% not below IR duplication %.1f%%",
				d.Case, d.HybridPct, d.DupIRPct)
		}
		if d.DupPct < 150 {
			t.Errorf("%s: duplication %.1f%% implausibly cheap vs the paper's 300%% bound", d.Case, d.DupPct)
		}
	}
}

func TestTableBeyond(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every variant under the extended fault catalog; run without -short")
	}
	tab, data, err := TableBeyond()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(data) != 6 {
		t.Fatalf("rows = %d, want 2 cases x 3 pipelines", len(data))
	}
	for _, d := range data {
		for _, m := range beyondModels {
			if d.Injections[m] == 0 {
				t.Errorf("%s/%s: no %s injections enumerated", d.Case, d.Pipeline, m)
			}
		}
		if d.Pairs == 0 {
			t.Errorf("%s/%s: no order-2 pairs enumerated", d.Case, d.Pipeline)
		}
		// Shape: the original binaries fall to the wide-skip model the
		// countermeasures were never designed against.
		if d.Pipeline == "original" && d.Success[fault.ModelMultiSkip] == 0 {
			t.Errorf("%s/original: multi-skip found no vulnerabilities", d.Case)
		}
	}
}

func TestFigures(t *testing.T) {
	tab, data, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	shape := PaperFigure5
	if data.ValidationBlocks != shape.ValidationPerEdge*shape.EdgesPerBranch {
		t.Errorf("validation blocks = %d, want %d", data.ValidationBlocks,
			shape.ValidationPerEdge*shape.EdgesPerBranch)
	}
	if data.FaultRespBlocks != shape.FaultRespPerEdge*shape.EdgesPerBranch {
		t.Errorf("fault-response blocks = %d, want %d", data.FaultRespBlocks,
			shape.FaultRespPerEdge*shape.EdgesPerBranch)
	}
	if data.BranchesProtected != 1 {
		t.Errorf("protected %d branches, want 1", data.BranchesProtected)
	}
}
