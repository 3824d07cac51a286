package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
)

// newTestStore builds a disk-backed store in a test temp dir.
func newTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCachedRunBitIdentity: a campaign run through the store — cold
// (populating) and warm (answered from it) — must be bit-identical to
// an uncached run. This is the store's core guarantee, alongside the
// worker/shard determinism tests.
func TestCachedRunBitIdentity(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip)
	res, err := Run(c, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Report
	st := newTestStore(t, t.TempDir())
	cold, err := RunIncremental(c, 1, Options{Store: st}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunIncremental(c, 1, Options{Store: st}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Injections, cold.Report.Injections) {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(plain.Injections, warm.Report.Injections) {
		t.Fatal("warm cached run differs from uncached run")
	}
	if cold.Cache.Hits != 0 || cold.Cache.Misses != 1 {
		t.Errorf("cold stats = %+v, want 1 miss", cold.Cache)
	}
	if warm.Cache.Hits != 1 || warm.Cache.Misses != 0 {
		t.Errorf("warm stats = %+v, want 1 hit", warm.Cache)
	}
	if warm.Report.GoodOracle != plain.GoodOracle || warm.Report.BadOracle != plain.BadOracle {
		t.Error("oracles drifted through the cache")
	}
}

// TestCachedRunAcrossStores: a second store over the same directory (a
// separate process, in effect) must answer the campaign from disk.
func TestCachedRunAcrossStores(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	dir := t.TempDir()
	first, err := RunIncremental(c, 1, Options{Store: newTestStore(t, dir)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	second := newTestStore(t, dir)
	warm, err := RunIncremental(c, 1, Options{Store: second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 1 {
		t.Fatalf("fresh store over a warm dir missed: %+v", warm.Cache)
	}
	if !reflect.DeepEqual(first.Report.Injections, warm.Report.Injections) {
		t.Fatal("disk round-trip changed the report")
	}
}

// TestCachedOrder2BitIdentity: order-2 campaigns reuse through the
// store too, bit-identically, and the warm run answers both stages
// (solo entry + pair entry) without simulating.
func TestCachedOrder2BitIdentity(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	opt := Options{MaxPairs: 256}
	res, err := Run(c, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Order2
	st := newTestStore(t, t.TempDir())
	opt.Store = st
	cold, err := RunIncremental(c, 2, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunIncremental(c, 2, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Order2Report{"cold": cold.Order2, "warm": warm.Order2} {
		if !reflect.DeepEqual(plain.Solo.Injections, got.Solo.Injections) {
			t.Errorf("%s solo sweep differs from uncached", name)
		}
		if !reflect.DeepEqual(plain.Pairs, got.Pairs) {
			t.Errorf("%s pair sweep differs from uncached", name)
		}
		if got.PairTally != plain.PairTally {
			t.Errorf("%s pair tally %v, want %v", name, got.PairTally, plain.PairTally)
		}
	}
	if warm.Cache.Hits != 2 || warm.Cache.Misses != 0 || warm.Cache.Resimulated != 0 {
		t.Errorf("warm order-2 stats = %+v, want 2 hits and no simulation", warm.Cache)
	}
}

// TestStaleEntryResimulates: a stored stage entry that no longer
// matches the stage it would be zipped against — item-list digest,
// oracles, injection budget, or length — is a miss at every order:
// the stage re-simulates bit-identically to an uncached run, counts
// one miss (the lower stages still hit), and replaces the stale entry
// so the next run is a pure hit. So is a cache file corrupted into
// another valid entry (one outcome flipped, schema and key intact),
// which only the entry checksum catches.
func TestStaleEntryResimulates(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	opt := Options{MaxPairs: 128, MaxTriples: 64}
	budgets := map[int]int{1: 0, 2: opt.MaxPairs, 3: opt.MaxTriples}
	stale := []struct {
		name   string
		mutate func(*Entry)
		raw    bool // write the mutated entry straight to its file, bypassing Save and its checksum
	}{
		{"digest", func(e *Entry) { e.Digest = "drifted" }, false},
		{"good oracle", func(e *Entry) { e.GoodOracle.ExitCode++ }, false},
		{"bad oracle", func(e *Entry) { e.BadOracle.Stdout += "!" }, false},
		{"limit", func(e *Entry) { e.Limit++ }, false},
		{"length", func(e *Entry) {
			if e.Records != nil {
				e.Records = append(e.Records, Record{})
			} else {
				e.Outcomes = append(e.Outcomes, fault.OutcomeIgnored)
			}
		}, false},
		{"flipped outcome on disk", func(e *Entry) {
			if e.Records != nil {
				e.Records[0].Outcome ^= 1
			} else {
				e.Outcomes[0] ^= 1
			}
		}, true},
	}
	for order := 1; order <= 3; order++ {
		plain, err := Run(c, order, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range stale {
			label := fmt.Sprintf("order %d, stale %s", order, tc.name)
			dir := t.TempDir()
			o := opt
			o.Store = newTestStore(t, dir)
			if _, err := Run(c, order, o); err != nil {
				t.Fatal(err)
			}
			key := NewPlan(c, Shard{}, order, budgets[order]).Key
			e, ok := o.Store.Lookup(key)
			if !ok {
				t.Fatalf("%s: cold run stored no entry for its top stage", label)
			}
			bad := *e
			bad.Records, bad.Outcomes = slices.Clone(e.Records), slices.Clone(e.Outcomes)
			tc.mutate(&bad)
			if tc.raw {
				data, err := json.Marshal(&bad)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := o.Store.Save(&bad); err != nil {
				t.Fatal(err)
			}
			// A fresh store holds nothing in memory: the run reads the
			// stored file.
			o.Store = newTestStore(t, dir)

			got, err := Run(c, order, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Report.Injections, got.Report.Injections) || plain.Tally != got.Tally {
				t.Errorf("%s: solo stage differs from the uncached run", label)
			}
			if (plain.Order2 == nil) != (got.Order2 == nil) ||
				plain.Order2 != nil && (!reflect.DeepEqual(plain.Order2.Pairs, got.Order2.Pairs) || plain.Order2.PairTally != got.Order2.PairTally) {
				t.Errorf("%s: pair stage differs from the uncached run", label)
			}
			if (plain.Order3 == nil) != (got.Order3 == nil) ||
				plain.Order3 != nil && (!reflect.DeepEqual(plain.Order3.Triples, got.Order3.Triples) || plain.Order3.TripleTally != got.Order3.TripleTally) {
				t.Errorf("%s: triple stage differs from the uncached run", label)
			}
			if got.Cache.Misses != 1 || got.Cache.Hits != order-1 {
				t.Errorf("%s: stats %+v, want 1 miss and %d hits", label, got.Cache, order-1)
			}
			o.Store = newTestStore(t, dir)
			again, err := Run(c, order, o)
			if err != nil {
				t.Fatal(err)
			}
			if again.Cache.Misses != 0 || again.Cache.Hits != order {
				t.Errorf("%s: stale entry not replaced: next run %+v", label, again.Cache)
			}
		}
	}
}

// deadTailSource builds the mini pincheck with a page-spanning dead
// tail whose final instruction is caller-chosen — two variants differ
// only in bytes no run ever fetches, on a page of their own.
func deadTailSource(tail string) string {
	var sb strings.Builder
	sb.WriteString(miniPincheck[:strings.Index(miniPincheck, ".rodata")])
	sb.WriteString("deadcode:\n")
	for i := 0; i < 4200; i++ {
		sb.WriteString("\tnop\n")
	}
	sb.WriteString("\t" + tail + "\n")
	sb.WriteString(miniPincheck[strings.Index(miniPincheck, ".rodata"):])
	return sb.String()
}

func assembleT(t *testing.T, src string) *elf.Binary {
	t.Helper()
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestIncrementalReuseAcrossBinaries is the driver's invalidation rule
// in isolation: two binaries differing only in never-executed code on
// a page outside every footprint must reuse every outcome, while a
// change to live code re-simulates (and both stay bit-identical to
// cold runs of the new binary).
func TestIncrementalReuseAcrossBinaries(t *testing.T) {
	binA := assembleT(t, deadTailSource("mov rax, 1"))
	binB := assembleT(t, deadTailSource("mov rax, 2"))
	campA := miniCampaign(binA, fault.ModelSkip)
	campB := miniCampaign(binB, fault.ModelSkip)
	if binA.Digest() == binB.Digest() {
		t.Fatal("variant binaries share a digest — dead tail not encoded?")
	}

	first, err := RunIncremental(campA, 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged binary: the memo answers everything.
	same, err := RunIncremental(campA, 1, Options{}, first.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if same.Cache.Resimulated != 0 || same.Cache.Reused != len(first.Report.Injections) {
		t.Errorf("unchanged binary: %+v, want all %d reused", same.Cache, len(first.Report.Injections))
	}
	if !reflect.DeepEqual(first.Report.Injections, same.Report.Injections) {
		t.Fatal("memo replay differs from original run")
	}

	// Dead-code-only change: footprints avoid the changed page, so the
	// memo still answers everything — and the result must equal a cold
	// run of the changed binary.
	cold, err := Run(campB, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := RunIncremental(campB, 1, Options{}, first.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Report.Injections, inc.Report.Injections) {
		t.Fatal("incremental run differs from cold run of the changed binary")
	}
	// Nearly everything reuses. Not literally everything: skipping the
	// final exit syscall falls through *into* the dead tail, so that
	// one fault's footprint rightly includes the changed page — the
	// invalidation rule catching a reachable "dead" byte is exactly the
	// soundness this test guards.
	if inc.Cache.Reused <= inc.Cache.Resimulated {
		t.Errorf("dead-code change should mostly reuse: %+v", inc.Cache)
	}
}

// TestIncrementalInvalidatesLiveCode: changing an executed instruction
// must invalidate the faults whose runs fetch its page — correctness
// first, reuse second.
func TestIncrementalInvalidatesLiveCode(t *testing.T) {
	binA := buildMini(t)
	// Same program with a different denial exit code: live .text change.
	src := strings.Replace(miniPincheck, "mov rdi, 1\n\tsyscall", "mov rdi, 3\n\tsyscall", 1)
	if src == miniPincheck {
		t.Fatal("source surgery failed")
	}
	binB := assembleT(t, src)

	first, err := RunIncremental(miniCampaign(binA, fault.ModelSkip), 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(miniCampaign(binB, fault.ModelSkip), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := RunIncremental(miniCampaign(binB, fault.ModelSkip), 1, Options{}, first.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Report.Injections, inc.Report.Injections) {
		t.Fatal("incremental run differs from cold run after live-code change")
	}
	if inc.Cache.Resimulated == 0 {
		t.Error("live-code change re-simulated nothing — invalidation rule broken")
	}
}

// TestParseShard covers the CLI shard syntax's edge cases.
func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":      {},
		"0/1":   {Index: 0, Count: 1},
		"0/4":   {Index: 0, Count: 4},
		"3/4":   {Index: 3, Count: 4},
		" 1/2 ": {Index: 1, Count: 2},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", in, got, want)
		}
	}
	bad := []string{"1", "/", "1/", "/2", "a/b", "1/b", "a/2", "1/0", "2/2", "-1/2", "1/-2", "0/1/2", "1.5/2"}
	for _, in := range bad {
		if got, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) = %+v, want error", in, got)
		}
	}
}

// TestMergeErrorPaths: every rejection reason of Merge fires with a
// precise message — empty input, nil shard, mismatched campaigns,
// wrong round-robin decomposition.
func TestMergeErrorPaths(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	res, err := Run(c, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := res.Report
	shards := make([]*fault.Report, 2)
	for i := range shards {
		res, err := Run(c, 1, Options{Shard: Shard{Index: i, Count: 2}})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = res.Report
	}

	if _, err := Merge(nil); err == nil {
		t.Error("Merge(nil) succeeded")
	}
	if _, err := Merge([]*fault.Report{}); err == nil {
		t.Error("Merge(empty) succeeded")
	}
	if _, err := Merge([]*fault.Report{shards[0], nil}); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("Merge with nil shard: %v", err)
	}
	// Mismatched campaigns: different oracles.
	other := *shards[1]
	other.GoodOracle.ExitCode++
	if _, err := Merge([]*fault.Report{shards[0], &other}); err == nil || !strings.Contains(err.Error(), "not the same campaign") {
		t.Errorf("Merge with foreign shard: %v", err)
	}
	// Mismatched fault sets: a truncated shard breaks the round-robin
	// size decomposition.
	trunc := *shards[1]
	trunc.Injections = trunc.Injections[:len(trunc.Injections)-1]
	if _, err := Merge([]*fault.Report{shards[0], &trunc}); err == nil ||
		!strings.Contains(err.Error(), "injections") {
		t.Errorf("Merge with truncated shard: %v", err)
	}
	// Sanity: the healthy path still recombines to the full run.
	merged, err := Merge([]*fault.Report{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Injections, full.Injections) {
		t.Error("healthy merge no longer matches the unsharded run")
	}
}

// TestMergeOrder2ErrorPaths mirrors the error coverage for the order-2
// recombiner.
func TestMergeOrder2ErrorPaths(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	opt := Options{MaxPairs: 128}
	res, err := Run(c, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	full := res.Order2
	shards := make([]*Order2Report, 2)
	for i := range shards {
		o := opt
		o.Shard = Shard{Index: i, Count: 2}
		res, err := Run(c, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = res.Order2
	}

	if _, err := MergeOrder2(nil); err == nil {
		t.Error("MergeOrder2(nil) succeeded")
	}
	if _, err := MergeOrder2([]*Order2Report{shards[0], nil}); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("MergeOrder2 with nil shard: %v", err)
	}
	// Mismatched solo sweeps (different fault sets).
	foreign := &Order2Report{Solo: &fault.Report{
		GoodOracle: shards[0].Solo.GoodOracle,
		BadOracle:  shards[0].Solo.BadOracle,
		Injections: shards[0].Solo.Injections[:1],
	}}
	if _, err := MergeOrder2([]*Order2Report{shards[0], foreign}); err == nil || !strings.Contains(err.Error(), "not the same campaign") {
		t.Errorf("MergeOrder2 with foreign solo sweep: %v", err)
	}
	// Truncated pair list: caught by the size decomposition or, when
	// the sizes still happen to add up, by the tally integrity check.
	trunc := *shards[1]
	trunc.Pairs = trunc.Pairs[:len(trunc.Pairs)-1]
	if _, err := MergeOrder2([]*Order2Report{shards[0], &trunc}); err == nil ||
		!strings.Contains(err.Error(), "pair") {
		t.Errorf("MergeOrder2 with truncated shard: %v", err)
	}
	merged, err := MergeOrder2([]*Order2Report{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Pairs, full.Pairs) {
		t.Error("healthy order-2 merge no longer matches the unsharded run")
	}
}

// TestStoreEviction: the in-memory LRU honors its cap, evicts coldest
// first, and keeps serving evicted entries from disk.
func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStoreCapped(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(key string) *Entry {
		return &Entry{Key: key, Digest: "fd-" + key, Limit: 7,
			Records: []Record{{Outcome: fault.OutcomeIgnored, Steps: 3}}}
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := st.Save(entry(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.MemEntries(); got != 2 {
		t.Fatalf("resident entries = %d, want 2", got)
	}
	// "a" was evicted but must come back from disk, bit-identical.
	got, ok := st.Lookup("a")
	if !ok {
		t.Fatal("evicted entry lost (disk should be the source of truth)")
	}
	want := entry("a")
	want.Schema, want.Sum = planSchema, want.checksum()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round-trip of evicted entry drifted: %+v != %+v", got, want)
	}
	// The re-read displaced the coldest resident ("b"); "c" survived.
	if st.MemEntries() != 2 {
		t.Fatalf("resident entries = %d after re-read, want 2", st.MemEntries())
	}
	if _, ok := st.Lookup("c"); !ok {
		t.Fatal("recently used entry evicted out of order")
	}
}

// TestStoreEvictionLRUOrder: touching an entry via Lookup protects it
// from the next eviction.
func TestStoreEvictionLRUOrder(t *testing.T) {
	st, err := NewStoreCapped("", 2) // in-memory: eviction really discards
	if err != nil {
		t.Fatal(err)
	}
	save := func(key string) {
		if err := st.Save(&Entry{Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	save("a")
	save("b")
	st.Lookup("a") // a is now hotter than b
	save("c")      // evicts b
	if _, ok := st.Lookup("a"); !ok {
		t.Error("touched entry evicted")
	}
	if _, ok := st.Lookup("b"); ok {
		t.Error("coldest entry survived over the touched one")
	}
}

// TestCappedStoreReplaysBitIdentically: a campaign run against a store
// whose cap forces every entry out of memory still replays warm runs
// bit-identically — the reads just come from disk.
func TestCappedStoreReplaysBitIdentically(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip)
	dir := t.TempDir()
	tiny, err := NewStoreCapped(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Report
	cold, err := RunIncremental(c, 1, Options{Store: tiny}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Churn the store so the campaign's entry is evicted from memory.
	for i := 0; i < 4; i++ {
		if err := tiny.Save(&Entry{Key: fmt.Sprintf("churn-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := RunIncremental(c, 1, Options{Store: tiny}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 1 || warm.Cache.Misses != 0 {
		t.Fatalf("warm run against churned capped store: %+v, want a pure hit", warm.Cache)
	}
	for _, rep := range []*fault.Report{cold.Report, warm.Report} {
		if !reflect.DeepEqual(plain.Injections, rep.Injections) {
			t.Fatal("capped store run differs from the uncached run")
		}
	}
}

// TestNewStoreDefaults: disk-backed stores are capped by default;
// in-memory stores stay unbounded (their eviction would discard work).
func TestNewStoreDefaults(t *testing.T) {
	disk := newTestStore(t, t.TempDir())
	if disk.limit != DefaultMemEntries {
		t.Errorf("disk-backed default cap = %d, want %d", disk.limit, DefaultMemEntries)
	}
	mem := newTestStore(t, "")
	if mem.limit != 0 {
		t.Errorf("in-memory default cap = %d, want unbounded", mem.limit)
	}
}
