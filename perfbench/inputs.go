package main

import (
	"fmt"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/oracle"
)

// input is one binary of a workload: a catalog case or one of its
// oracle-screened variants, assembled.
type input struct {
	c    *cases.Case
	rank int // 0 for the catalog case, i for its i-th variant
	bin  *elf.Binary
}

// makeInputs derives a workload's binaries from the seed: every
// catalog case plus up to variants oracle.Variants survivors of each.
// The program under test receives only these binaries and the cases'
// good/bad inputs.
func makeInputs(seed uint64, variants int, tr *tracer) ([]input, error) {
	var out []input
	for _, c := range cases.Corpus() {
		all := []*cases.Case{c}
		tr.do("oracle.variants", func() { all = append(all, oracle.Variants(c, variants, seed)...) })
		for rank, v := range all {
			var bin *elf.Binary
			var err error
			tr.do("asm.assemble", func() { bin, err = v.Build() })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.Name, err)
			}
			out = append(out, input{c: v, rank: rank, bin: bin})
		}
	}
	return out, nil
}
