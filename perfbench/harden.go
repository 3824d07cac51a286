package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emit"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/oracle"
	"github.com/r2r/reinforce/internal/passes"
	"github.com/r2r/reinforce/internal/patch"
	"github.com/r2r/reinforce/internal/static"
)

// oracleInputs is how many generated inputs the differential oracle
// compares each hardened output on.
const oracleInputs = 16

// output is one hardened binary a pass produced.
type output struct {
	in       input
	bin      *elf.Binary
	findings int
	residual int // successful faults and pairs left (patch only)
}

// hardenWL holds what the patch and hybrid-verify workloads share:
// seeded inputs, the outputs of the latest pass, and the digests the
// first pass's checked outputs pinned.
type hardenWL struct {
	seed     uint64
	variants int
	inputs   []input
	outs     []output
	pinned   []string
	first    []output // the first pass's outputs, for the quality metrics
}

func (w *hardenWL) setup(seed uint64, tr *tracer) error {
	inputs, err := makeInputs(seed, w.variants, tr)
	w.seed, w.inputs = seed, inputs
	return err
}

func (w *hardenWL) prepare() error { return nil }

// check runs the full output checks on the first pass (the case's own
// good/bad oracle, the differential oracle over generated inputs, and
// zero verifier findings); later passes must reproduce the first
// pass's outputs bit for bit.
func (w *hardenWL) check(*passResult) (attempted, failed int) {
	if w.pinned == nil {
		w.first = w.outs
		for _, o := range w.outs {
			attempted++
			if o.findings != 0 || o.in.c.Check(o.bin) != nil {
				failed++
				w.pinned = append(w.pinned, "")
				continue
			}
			rep := oracle.Diff(o.in.bin, o.bin, oracle.CaseInputs(o.in.c, oracleInputs, w.seed), oracle.Options{})
			if !rep.Equivalent() {
				failed++
				w.pinned = append(w.pinned, "")
				continue
			}
			w.pinned = append(w.pinned, o.bin.Digest())
		}
		return attempted, failed
	}
	for i, o := range w.outs {
		attempted++
		if o.findings != 0 || w.pinned[i] == "" || o.bin.Digest() != w.pinned[i] {
			failed++
		}
	}
	return attempted, failed
}

// quality measures the first pass's outputs against their inputs.
func (w *hardenWL) quality() quality {
	q := quality{digest: fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(w.pinned, "\n"))))}
	var origSize, hardSize int
	var origSteps, hardSteps uint64
	for _, o := range w.first {
		origSize += o.in.bin.CodeSize()
		hardSize += o.bin.CodeSize()
		origSteps += goodSteps(o.in)
		hardSteps += goodSteps(input{c: o.in.c, bin: o.bin})
		q.successes += o.residual
		q.findings += o.findings
	}
	if origSize > 0 {
		q.overheadPct = 100 * (float64(hardSize)/float64(origSize) - 1)
	}
	if origSteps > 0 {
		q.runtimeOverheadPct = 100 * (float64(hardSteps)/float64(origSteps) - 1)
	}
	return q
}

// goodSteps counts the emulated steps of a binary on its good input.
func goodSteps(in input) uint64 {
	m := emu.New(in.bin, emu.Config{Stdin: in.c.Good, StepLimit: corpusStepLimit})
	res, err := m.Run()
	m.Release()
	if err != nil {
		return 0
	}
	return res.Steps
}

// patchWL is `r2r patch -order 2` on every input: the Faulter+Patcher
// fixed point under skip and bit-flip faults, gated by VerifyBIR.
type patchWL struct {
	hardenWL
	iterMS   []time.Duration     // traced passes: time between Log callbacks
	iters    int                 // last pass: driver rounds (solo + pair)
	patched  int                 // last pass: sites patched or escalated
	cache    campaign.CacheStats // last pass: store/memo accounting
	programs []*bir.Program      // last pass: the hardened programs
}

func (w *patchWL) pass(tr *tracer) (*passResult, error) {
	p := &passResult{binaries: len(w.inputs)}
	w.outs, w.cache, w.programs = nil, campaign.CacheStats{}, nil
	w.iters, w.patched = 0, 0
	t0 := time.Now()
	for _, in := range w.inputs {
		start := time.Now()
		opt := harden.FaulterPatcherOptions{
			Good: in.c.Good, Bad: in.c.Bad, Models: bothModels, Order: 2, Workers: numWorkers(),
		}
		if tr != nil {
			last := time.Now()
			opt.Log = func(string) {
				now := time.Now()
				w.iterMS = append(w.iterMS, now.Sub(last))
				last = now
			}
		}
		var res *harden.FaulterPatcherResult
		var err error
		tr.do("patch.faulter_patcher", func() { res, err = harden.FaulterPatcher(in.bin, opt) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.c.Name, err)
		}
		findings := 0
		if hasOrder2(res.Program) {
			tr.do("static.verify_bir", func() { findings = len(static.VerifyBIR(res.Program, birConfig())) })
		}
		p.latencies = append(p.latencies, time.Since(start))

		residual := len(res.Final.Successful())
		for _, pi := range res.FinalPairs {
			if pi.Outcome == fault.OutcomeSuccess {
				residual++
			}
		}
		w.outs = append(w.outs, output{in: in, bin: res.Binary, findings: findings, residual: residual})
		w.programs = append(w.programs, res.Program)
		w.iters += len(res.Iterations) + len(res.PairIterations)
		for _, it := range res.Iterations {
			w.patched += it.Patched
			p.outcomes += it.Injections
		}
		for _, it := range res.PairIterations {
			w.patched += it.Escalated
			p.outcomes += it.Solo + it.Pairs
		}
		p.outcomes += len(res.Final.Injections)
		w.cache.Add(res.Cache)
	}
	p.wall = time.Since(t0)
	return p, nil
}

// hybridWL is `r2r verify` over every input without the patch
// pipeline: harden.Hybrid in branch and order2 mode, the static proofs
// each mode promises, then emission and reload of the artifact.
type hybridWL struct {
	hardenWL
}

var hybridModes = []bool{false, true} // SkipWindow off (branch), on (order2)

func (w *hybridWL) pass(tr *tracer) (*passResult, error) {
	p := &passResult{binaries: len(w.inputs)}
	w.outs = nil
	t0 := time.Now()
	for _, in := range w.inputs {
		start := time.Now()
		for _, sw := range hybridModes {
			out, err := hybridVerify(in, sw, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.c.Name, err)
			}
			w.outs = append(w.outs, out)
		}
		p.latencies = append(p.latencies, time.Since(start))
	}
	p.wall = time.Since(t0)
	return p, nil
}

func hybridVerify(in input, skipWindow bool, tr *tracer) (output, error) {
	var res *harden.HybridResult
	var err error
	tr.do("harden.hybrid", func() { res, err = harden.Hybrid(in.bin, harden.HybridOptions{SkipWindow: skipWindow}) })
	if err != nil {
		return output{}, err
	}
	var a *static.Analysis
	tr.do("static.analyze", func() { a, err = static.Analyze(res.Binary) })
	if err != nil {
		return output{}, err
	}
	var findings []static.Finding
	tr.do("static.coverage", func() { findings = a.CheckCoverage() })
	if skipWindow {
		tr.do("static.verify_ir", func() { findings = append(findings, static.VerifyIR(res.Module, irConfig())...) })
	}
	var img []byte
	tr.do("emit.image", func() { img, err = emit.Image(res.Binary) })
	if err != nil {
		return output{}, err
	}
	var loaded *elf.Binary
	tr.do("elf.load", func() { loaded, err = elf.Load(img) })
	if err != nil {
		return output{}, err
	}
	return output{in: in, bin: loaded, findings: len(findings)}, nil
}

// irConfig and birConfig bind the verifier to the toolchain's cell
// names, skip window and fault-handler label, as `r2r verify` does.
func irConfig() static.IRConfig {
	return static.IRConfig{OkCell: passes.CellSWOk, CtrCell: passes.CellStepCtr, Window: passes.DefaultSkipWindow}
}

func birConfig() static.BIRConfig {
	return static.BIRConfig{FaultHandler: patch.FaulthandlerLabel}
}

// hasOrder2 reports whether any instruction carries an order-2 pattern
// mark: only then does `r2r patch -order 2` run its VerifyBIR gate.
func hasOrder2(p *bir.Program) bool {
	for _, b := range p.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Order2 {
				return true
			}
		}
	}
	return false
}
