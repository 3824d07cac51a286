package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// summary is one metric's distribution over the repeats of a run.
type summary struct {
	Repeats int     `json:"repeats"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs, with the same
// (exclusive) quartile method as Python's statistics.quantiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Repeats: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// quantile interpolates the q-quantile of sorted xs at position
// q*(n+1), clamped to the ends.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := q * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
}

// tail is the highest reported percentile that still has at least ten
// samples beyond it in a sample of base latencies.
type tail struct {
	Percentile float64 `json:"percentile"`
	ValueMS    float64 `json:"value_ms"`
	Samples    int     `json:"samples"`
}

func latencyTail(lat []time.Duration, base int) tail {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	t := tail{Percentile: 50, Samples: len(ms)}
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(base)*(1-p/100) >= 10 {
			t.Percentile = p
			break
		}
	}
	t.ValueMS = quantile(ms, t.Percentile/100)
	return t
}

func medianDuration(lat []time.Duration) float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return summarize(ms).Median
}

// host identifies the machine and build that produced a record.
type host struct {
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func fingerprint(root string) host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.SourceDigest = sourceDigest(root)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so
// a record names the code it measured even where no VCS metadata
// exists (the benchmark may run from an exported tree).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
