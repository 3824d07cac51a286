package campaign

import (
	"crypto/sha256"
	"reflect"
	"slices"
	"testing"

	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/isa"
)

// digestFixture is a fixed fault list touching every Fault field.
var digestFixture = []fault.Fault{
	{Model: fault.ModelSkip, TraceIndex: 7, Addr: 0x401010, Op: isa.CMP},
	{Model: fault.ModelBitFlip, TraceIndex: 8, Addr: 0x401014, Op: isa.JCC, Cond: isa.CondNE, Bit: 3, Transient: true},
	{Model: fault.ModelRegFlip, TraceIndex: 9, Addr: 0x401016, Op: isa.MOV, Reg: isa.RAX, Bit: 63},
	{Model: fault.ModelMultiSkip, TraceIndex: 1 << 40, Addr: 0x7FFF_FFF0_0000, Op: isa.SYSCALL, Window: 4},
	{Model: fault.ModelDataFlip, TraceIndex: 0, Addr: ^uint64(0), Op: isa.MOV, Bit: -1},
}

// TestDigestGolden pins the item-list digests: a change to the
// encoding changes every stored entry's digest, so it must come with a
// planSchema bump and new golden values. The values are SHA-256 of the
// concatenated 37-byte records fixedHash.fault documents, computed
// independently of the encoder (Python's struct format "<BqQBBqBBq").
func TestDigestGolden(t *testing.T) {
	fs := digestFixture
	var pairs []fault.FaultPair
	var triples []fault.FaultTriple
	for i := range fs {
		pairs = append(pairs, fault.FaultPair{First: fs[i], Second: fs[(i+1)%len(fs)]})
		triples = append(triples, fault.FaultTriple{First: fs[i], Second: fs[(i+1)%len(fs)], Third: fs[(i+2)%len(fs)]})
	}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"faults", digestFaults(fs), "0c68d172793a79a103ecbea89672f56b564d77837a492256af314082db6c2d2a"},
		{"pairs", digestPairs(pairs), "f19ec9b77783bd8b51c52d77dc9a18957aeb76898c919ab7fcb818663eccc74c"},
		{"triples", digestTriples(triples), "eecf4666e50e9177cc5a9136a1d50ec8d8d37c84553aedd7cd056201ee9c483a"},
		{"empty", digestFaults(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestDigestChunking: lists longer than one hash chunk digest the same
// as hashing their encoding in one piece would, wherever the chunk
// boundaries fall — the digest depends on the list alone.
func TestDigestChunking(t *testing.T) {
	var fs []fault.Fault
	for i := 0; len(fs)*faultLen < 3*fixedHashChunk; i++ {
		f := digestFixture[i%len(digestFixture)]
		f.TraceIndex = i
		fs = append(fs, f)
	}
	one := &fixedHash{h: sha256.New(), buf: make([]byte, 0, len(fs)*faultLen)}
	for i := range fs {
		one.fault(&fs[i])
	}
	if got, want := digestFaults(fs), one.sum(); got != want {
		t.Fatalf("chunked digest %s, one-piece digest %s", got, want)
	}
}

// TestDigestCoversEveryFaultField: changing any single fault.Fault
// field changes the digest of a list holding that fault, in any
// position of a pair or triple — the fixed-width encoder covers every
// identity field, including fields added after it was written.
func TestDigestCoversEveryFaultField(t *testing.T) {
	base := digestFixture[1]
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := base
		v := reflect.ValueOf(&f).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		default:
			t.Fatalf("field %s has kind %s: extend the encoder and this test", typ.Field(i).Name, v.Kind())
		}
		name := typ.Field(i).Name
		if digestFaults([]fault.Fault{f}) == digestFaults([]fault.Fault{base}) {
			t.Errorf("changing %s leaves the fault digest unchanged", name)
		}
		o := digestFixture[0]
		for pos, pair := range [][2]fault.Fault{{f, o}, {o, f}} {
			was := [2]fault.Fault{base, o}
			if pos == 1 {
				was = [2]fault.Fault{o, base}
			}
			if digestPairs([]fault.FaultPair{{First: pair[0], Second: pair[1]}}) ==
				digestPairs([]fault.FaultPair{{First: was[0], Second: was[1]}}) {
				t.Errorf("changing %s in pair position %d leaves the digest unchanged", name, pos)
			}
		}
		for pos := 0; pos < 3; pos++ {
			now, was := [3]fault.Fault{o, o, o}, [3]fault.Fault{o, o, o}
			now[pos], was[pos] = f, base
			if digestTriples([]fault.FaultTriple{{First: now[0], Second: now[1], Third: now[2]}}) ==
				digestTriples([]fault.FaultTriple{{First: was[0], Second: was[1], Third: was[2]}}) {
				t.Errorf("changing %s in triple position %d leaves the digest unchanged", name, pos)
			}
		}
	}
}

// TestChecksumCoversEveryRecordField: changing any single Record field,
// or any outcome, changes an entry's checksum — the checksum covers
// every stored result a replay would return.
func TestChecksumCoversEveryRecordField(t *testing.T) {
	base := Entry{Records: []Record{{Outcome: fault.OutcomeCrash, Steps: 9, Pages: []uint64{0x401000}}}}
	sum := base.checksum()
	typ := reflect.TypeOf(Record{})
	for i := 0; i < typ.NumField(); i++ {
		e := Entry{Records: []Record{base.Records[0]}}
		e.Records[0].Pages = slices.Clone(base.Records[0].Pages)
		v := reflect.ValueOf(&e.Records[0]).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Uint8, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Slice:
			v.Index(0).SetUint(v.Index(0).Uint() + 0x1000)
		default:
			t.Fatalf("field %s has kind %s: extend the checksum and this test", typ.Field(i).Name, v.Kind())
		}
		if e.checksum() == sum {
			t.Errorf("changing Record.%s leaves the checksum unchanged", typ.Field(i).Name)
		}
	}
	outs := Entry{Outcomes: []fault.Outcome{fault.OutcomeIgnored, fault.OutcomeSuccess}}
	flipped := Entry{Outcomes: []fault.Outcome{fault.OutcomeIgnored, fault.OutcomeIgnored}}
	if outs.checksum() == flipped.checksum() {
		t.Error("flipping an outcome leaves the checksum unchanged")
	}
	if (&Entry{}).checksum() == (&Entry{Outcomes: []fault.Outcome{fault.OutcomeIgnored}}).checksum() {
		t.Error("an empty entry and a one-outcome entry share a checksum")
	}
}
