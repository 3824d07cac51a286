package main

import (
	"time"

	"github.com/r2r/reinforce/internal/bir"
)

// replaySpans maps the spans a workload's replay records around its
// own layer calls to the per-layer metrics they give.
var replaySpans = map[string]string{
	"static.analyze":    "static.analyze_s",
	"static.coverage":   "static.coverage_s",
	"static.verify_ir":  "static.verify_ir_s",
	"static.verify_bir": "static.verify_bir_s",
	"emit.image":        "emit.image_s",
	"elf.load":          "elf.load_s",
}

// layerRun derives the per-layer metrics of a traced run: self times
// of the replay's spans per traced pass, the set-up's spans per set-up,
// the counters the workload's results carry, and then probes for every
// layer the replay did not reach.
func layerRun(w workload, scr string, tr *tracer, traced []*passResult, setups int) (layerMetrics, error) {
	m := layerMetrics{}
	replay := tr.selfTimes(func(s span) bool { return s.Pass >= 1 })
	for sp, name := range replaySpans {
		if d, ok := replay[sp]; ok {
			m.set(name, d.Seconds()/float64(len(traced)))
		}
	}
	setup := tr.selfTimes(func(s span) bool { return s.Pass == setupPass })
	m.set("asm.assemble_s", setup["asm.assemble"].Seconds()/float64(setups))
	m.set("oracle.variants_s", setup["oracle.variants"].Seconds()/float64(setups))

	var inputs []input
	var hardened []*bir.Program
	switch w := w.(type) {
	case *corpusWL:
		inputs = w.inputs
		var cells []time.Duration
		for _, c := range w.last.Results {
			cells = append(cells, c.Elapsed)
		}
		m.set("campaign.cell_ms", medianDuration(cells))
		setCache(m, w.last.Cache)
	case *patchWL:
		inputs, hardened = w.inputs, w.programs
		m.set("patch.iterations", float64(w.iters))
		m.set("patch.sites_patched", float64(w.patched))
		m.set("patch.iteration_ms", meanMS(w.iterMS))
		setCache(m, w.cache)
	case *hybridWL:
		inputs = w.inputs
	}
	tr.pass = probePass
	sub := probeSubset(inputs)
	if err := probeEmu(inputs, tr, m); err != nil {
		return nil, err
	}
	if err := probeFault(sub, tr, m); err != nil {
		return nil, err
	}
	if err := probeCampaign(sub, scr, tr, m); err != nil {
		return nil, err
	}
	if !m.has("patch.iterations", "patch.sites_patched", "patch.iteration_ms") {
		if err := probePatch(sub, tr, m); err != nil {
			return nil, err
		}
	}
	if err := probeBIR(inputs, hardened, tr, m); err != nil {
		return nil, err
	}
	if err := probeHybrid(inputs, tr, m); err != nil {
		return nil, err
	}
	return m, nil
}
