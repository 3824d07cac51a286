// Planner: the first stage of the campaign engine's plan → execute →
// store architecture. A Plan is a content-addressed description of one
// campaign execution — everything that determines its results, digested
// into a key — so the Store can answer "has this exact work been done
// before?" across driver iterations, repeated experiment runs, and
// separate processes, and the Executor only simulates what the store
// cannot answer.
package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/r2r/reinforce/internal/fault"
)

// planSchema versions the key derivation, the store entry layout, and
// the simulation semantics behind the stored outcomes. Bump it whenever
// any of them changes shape or meaning — including emulator behavior
// changes (syscall ABI, fault hook semantics) that would make a
// replayed outcome differ from a fresh simulation: old cache entries
// become unreachable instead of wrong.
//
// History: 1 = initial plan/execute/store split; 2 = read/write counts
// above maxIOChunk clamp to a partial transfer (Linux MAX_RW_COUNT
// semantics) instead of returning -EFAULT, changing outcomes of faults
// that corrupt a length register; 3 = one stage per entry: the pair
// and triple digests and outcome vectors fold into Entry.Digest and
// Entry.Outcomes; 4 = item-list digests hash fixed-width binary
// fields instead of formatted text, and entries carry a checksum of
// their records or outcomes (Entry.Sum).
const planSchema = 4

// Plan is a content-addressed campaign execution: the campaign itself
// plus the execution parameters that change its results (shard, fault
// order, pair budget — but not worker count or Options.Prune, which
// the engine guarantees are result-invariant: pruned and exhaustive
// executions of one plan share one key and one store entry, enforced
// by the differential harness in prunediff_test.go).
type Plan struct {
	Campaign fault.Campaign
	Shard    Shard
	Order    int // 1 = solo faults, 2 = + fault pairs, 3 = + fault triples
	MaxPairs int // enumeration budget of the plan's top order (0 = the order's default)

	// Key is the hex SHA-256 content address of everything above.
	Key string
}

// NewPlan builds the plan for one campaign execution, digesting every
// result-determining input into the content address. The shard must be
// normalized (see Shard.normalize) before planning so equivalent
// zero-value spellings map to one key.
func NewPlan(c fault.Campaign, shard Shard, order, maxPairs int) Plan {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("schema %d\n", planSchema)
	put("binary %s\n", c.Binary.Digest())
	put("good %d:", len(c.Good))
	h.Write(c.Good)
	put("\nbad %d:", len(c.Bad))
	h.Write(c.Bad)
	put("\nmodels")
	for _, m := range c.Models {
		put(" %d", m)
	}
	put("\nsteplimit %d injlimit %d dedup %t transient %t maxfaults %d\n",
		c.StepLimit, c.InjectionStepLimit, c.DedupSites, c.Transient, c.MaxFaults)
	put("shard %s order %d maxpairs %d\n", shard, order, maxPairs)
	return Plan{
		Campaign: c,
		Shard:    shard,
		Order:    order,
		MaxPairs: maxPairs,
		Key:      hex.EncodeToString(h.Sum(nil)),
	}
}

// digestFaults content-addresses an enumerated fault list. Store
// entries record it so a cached outcome vector is never zipped against
// a fault list it was not computed from (a second line of defense
// behind the plan key, guarding schema drift in enumeration itself).
func digestFaults(faults []fault.Fault) string {
	h := newFixedHash()
	for i := range faults {
		h.fault(&faults[i])
	}
	return h.sum()
}

// digestPairs content-addresses an enumerated pair list.
func digestPairs(pairs []fault.FaultPair) string {
	h := newFixedHash()
	for i := range pairs {
		h.fault(&pairs[i].First)
		h.fault(&pairs[i].Second)
	}
	return h.sum()
}

// digestTriples content-addresses an enumerated triple list.
func digestTriples(triples []fault.FaultTriple) string {
	h := newFixedHash()
	for i := range triples {
		h.fault(&triples[i].First)
		h.fault(&triples[i].Second)
		h.fault(&triples[i].Third)
	}
	return h.sum()
}

// fixedHashChunk is the size of fixedHash's buffer: fields accumulate
// there and reach SHA-256 one chunk at a time.
const fixedHashChunk = 4096

// fixedHash is the encoder behind the item-list digests and the entry
// checksum: it appends fixed-width little-endian fields to one reused
// buffer and hashes that buffer in chunks, so encoding allocates
// nothing per item. Fixed widths make the encoding unambiguous without
// separators.
type fixedHash struct {
	h   hash.Hash
	buf []byte
}

func newFixedHash() *fixedHash {
	return &fixedHash{h: sha256.New(), buf: make([]byte, 0, fixedHashChunk)}
}

// reserve flushes the buffer to the hash unless n more bytes fit.
func (d *fixedHash) reserve(n int) {
	if len(d.buf)+n > cap(d.buf) {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *fixedHash) u8(v uint8) {
	d.reserve(1)
	d.buf = append(d.buf, v)
}

func (d *fixedHash) u64(v uint64) {
	d.reserve(8)
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

// faultLen is the encoded size of one fault (see fault).
const faultLen = 1 + 8 + 8 + 1 + 1 + 8 + 1 + 1 + 8

// fault encodes every identity field of a fault, explicitly, as one
// 37-byte record: Model (1), TraceIndex (8), Addr (8), Op (1), Cond
// (1), Bit (8), Transient (1), Reg (1), Window (8). Adding a Fault
// field without extending this list is caught by
// TestDigestCoversEveryFaultField.
func (d *fixedHash) fault(f *fault.Fault) {
	d.reserve(faultLen)
	b := append(d.buf, byte(f.Model))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.TraceIndex))
	b = binary.LittleEndian.AppendUint64(b, f.Addr)
	b = append(b, byte(f.Op), byte(f.Cond))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Bit))
	b = append(b, boolByte(f.Transient), byte(f.Reg))
	d.buf = binary.LittleEndian.AppendUint64(b, uint64(f.Window))
}

// sum flushes the buffer and returns the hex digest.
func (d *fixedHash) sum() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
