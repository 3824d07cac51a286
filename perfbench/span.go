package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// traced pass share Pass; Parent indexes the enclosing span (-1 for a
// root).
type span struct {
	Name    string `json:"name"`
	Pass    int    `json:"pass"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode, where do only calls f, so untraced passes run the
// same code without recording anything. Spans are recorded from the
// benchmark's one goroutine only, so the tracer needs no lock.
type tracer struct {
	t0    time.Time
	pass  int
	open  []int // stack of open span indices
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span nested in the innermost open one.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Parent: parent, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	f()
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums, over the spans keep selects, each span name's self
// time: its duration minus the part covered by its children. The
// benchmark's calls are sequential, so children never overlap and
// their durations add.
func (t *tracer) selfTimes(keep func(span) bool) map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if keep(s) {
			self[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
		}
	}
	return self
}

// counts returns how many spans each name has.
func (t *tracer) counts() map[string]int {
	n := map[string]int{}
	for _, s := range t.spans {
		n[s.Name]++
	}
	return n
}

// write stores the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes(func(span) bool { return true })
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfEntry struct {
		Name  string  `json:"name"`
		SelfS float64 `json:"self_s"`
		Spans int     `json:"spans"`
	}
	counts := t.counts()
	out := struct {
		Self  []selfEntry `json:"self"`
		Spans []span      `json:"spans"`
	}{Spans: t.spans}
	for _, n := range names {
		out.Self = append(out.Self, selfEntry{Name: n, SelfS: self[n].Seconds(), Spans: counts[n]})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
