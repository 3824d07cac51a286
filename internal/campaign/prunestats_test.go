// Pins the pruning accounting: PruneStats is execution accounting, not
// part of the report, so the differential harness in prunediff_test.go
// cannot see it drift. This test fixes its values per cell and checks
// they do not depend on the worker count.
package campaign_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// pruneStatsGolden holds the PruneStats of every cell of
// TestPruneStatsGolden, one JSON record per line.
const pruneStatsGolden = "testdata/prune_stats.golden"

// pruneStatsRow is one cell's record in the golden file.
type pruneStatsRow struct {
	Case   string           `json:"case"`
	Models string           `json:"models"`
	Order  int              `json:"order"`
	Prune  fault.PruneStats `json:"prune"`
}

// TestPruneStatsGolden: every catalog case × {skip+bitflip,
// multi-instruction-skip} × orders 1-3, pruned at the full fault list
// and default pair/triple budgets, reports the same PruneStats at 1, 2
// and 8 workers, and those values equal the golden file. A change to
// the golden file is a change to what the pruner does, not only to how
// it is coded.
func TestPruneStatsGolden(t *testing.T) {
	modelSets := []struct {
		name   string
		models []fault.Model
	}{
		{"skip+bitflip", []fault.Model{fault.ModelSkip, fault.ModelBitFlip}},
		{"multi-skip", []fault.Model{fault.ModelMultiSkip}},
	}
	var got bytes.Buffer
	for _, name := range cases.Names() {
		for _, ms := range modelSets {
			c := campaigntest.CaseCampaign(t, name, ms.models, 0)
			for order := 1; order <= 3; order++ {
				label := fmt.Sprintf("%s/%s/o%d", name, ms.name, order)
				var ref fault.PruneStats
				for n, workers := range []int{1, 2, 8} {
					res, err := campaign.Run(c, order, campaign.Options{Prune: true, Workers: workers})
					if err != nil {
						t.Fatalf("%s: workers=%d: %v", label, workers, err)
					}
					if res.Prune == nil {
						t.Fatalf("%s: workers=%d: pruned run reported no PruneStats", label, workers)
					}
					if n == 0 {
						ref = *res.Prune
					} else if *res.Prune != ref {
						t.Errorf("%s: workers=%d: prune stats %+v, workers=1 gave %+v", label, workers, *res.Prune, ref)
					}
				}
				line, err := json.Marshal(pruneStatsRow{Case: name, Models: ms.name, Order: order, Prune: ref})
				if err != nil {
					t.Fatal(err)
				}
				got.Write(line)
				got.WriteByte('\n')
			}
		}
	}
	want, err := os.ReadFile(filepath.FromSlash(pruneStatsGolden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("prune stats differ from %s; got:\n%s", pruneStatsGolden, got.Bytes())
	}
}
