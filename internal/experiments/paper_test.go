package experiments

import "testing"

func TestPaperReferenceValues(t *testing.T) {
	// Pin the paper's numbers: these are transcription constants and
	// must never drift.
	if PaperTableV["pincheck"].FaulterPatcher != 17.61 || PaperTableV["pincheck"].Hybrid != 85.88 {
		t.Error("pincheck Table V row wrong")
	}
	if PaperTableV["bootloader"].FaulterPatcher != 19.67 || PaperTableV["bootloader"].Hybrid != 48.67 {
		t.Error("bootloader Table V row wrong")
	}
	if PaperDuplicationMinPct != 300 {
		t.Error("duplication bound wrong")
	}
	// Table IV total instruction counts (paper: 1+1 before, 22 IR
	// instructions after at the IR level).
	sum := 0
	for _, c := range PaperTableIV.IRAfter {
		sum += c.N
	}
	if sum != 22 {
		t.Errorf("paper IR-after total = %d, want 22", sum)
	}
	sum = 0
	for _, c := range PaperTableIV.X86After {
		sum += c.N
	}
	if sum != 35 {
		t.Errorf("paper x86-after total = %d, want 35", sum)
	}
	if PaperFigure5.ValidationPerEdge != 2 || PaperFigure5.EdgesPerBranch != 2 {
		t.Error("figure 5 shape wrong")
	}
}
