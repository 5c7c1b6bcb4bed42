// Package durable is the write-ahead subsystem behind the fixity
// principle's survival across process restarts: the paper requires that a
// citation "bring back the data as seen at the time it was cited", and its
// reference sketch (Pröll & Rauber, IEEE BigData 2013) assumes
// version-stamped data that can be re-executed later — which is only
// meaningful if the version history outlives the process that created it.
//
// The package provides three durable artifacts under one data directory:
//
//   - a MANIFEST recording the database schema,
//   - a segmented, CRC-checksummed append-only commit log of typed entries
//     (relation insert/delete batches, commits with digest metadata, view
//     definitions, policy changes),
//   - checkpoint files that hold the full logical state as the entries
//     that rebuild it from an empty database (policy, views, each
//     version's tuple changes and commit, the head's changes since), and
//     allow the log to be truncated.
//
// Recovery applies the checkpoint's entries and then the log tail's, one
// at a time, and rebuilds the exact version history: same version
// numbers, same snapshot contents, same digests. A torn log tail (the
// crash case) yields a clean prefix of the history; bytes that fail
// their checksum mid-log are reported as corruption, never applied.
// The orchestration — which entries mean what to the engine — lives in
// core; this package owns bytes, files and framing only.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/value"
)

// ErrCorrupt marks log or checkpoint bytes that fail structural validation
// (bad checksum, impossible length, malformed entry) or hold an entry
// recovery cannot apply. Recovery distinguishes it from a clean
// end-of-log: a torn tail is a prefix, corruption is an error. Classify
// with errors.Is.
var ErrCorrupt = errors.New("durable: corrupt data")

// EntryType enumerates the log entry kinds.
type EntryType uint8

// The log entry kinds.
const (
	// EntryInsert is a batch of tuples inserted into one relation.
	EntryInsert EntryType = 1
	// EntryDelete is a batch of tuples deleted from one relation.
	EntryDelete EntryType = 2
	// EntryCommit seals a version: message, resulting fixity version,
	// timestamp, live-tuple count and the canonical database digest.
	EntryCommit EntryType = 3
	// EntryDefineView registers a citation view (view query source,
	// citation queries with field mappings, static record).
	EntryDefineView EntryType = 4
	// EntrySetPolicy switches the default combination policy by name.
	EntrySetPolicy EntryType = 5
)

// String names the entry type.
func (t EntryType) String() string {
	switch t {
	case EntryInsert:
		return "insert"
	case EntryDelete:
		return "delete"
	case EntryCommit:
		return "commit"
	case EntryDefineView:
		return "define-view"
	case EntrySetPolicy:
		return "set-policy"
	default:
		return fmt.Sprintf("entry(%d)", uint8(t))
	}
}

// ViewCite is the serialized form of one citation query attached to a view:
// the query source text plus the head-position → citation-field mapping.
type ViewCite struct {
	Query  string
	Fields []string
}

// CommitMeta is the metadata an EntryCommit carries — everything recovery
// needs to rebuild the version with its original identity: the version
// number, the commit timestamp (Unix nanoseconds, UTC), the message, the
// live-tuple count, and the canonical SHA-256 digest of the whole database
// at commit time (fixity.DatabaseDigest). Recovery recomputes the digest
// from the rebuilt snapshot and refuses to proceed on mismatch.
type CommitMeta struct {
	Version   int64
	Timestamp int64 // Unix nanoseconds, UTC
	Message   string
	Tuples    int64
	Digest    string
}

// Entry is one typed log record. Which fields are meaningful depends on
// Type: Relation/Tuples for insert and delete batches, Commit for commits,
// ViewSrc/Cites/Static for view definitions, Policy for policy changes.
type Entry struct {
	Type EntryType

	// Insert / Delete.
	Relation string
	Tuples   []storage.Tuple

	// Commit.
	Commit CommitMeta

	// DefineView. Static holds the view's static record as ordered
	// field/value pairs (canonical field order), because the record type
	// itself is an unordered map.
	ViewSrc string
	Cites   []ViewCite
	Static  [][2]string

	// SetPolicyNamed.
	Policy string
}

// maxBlob bounds any single length-prefixed blob (string, tuple list,
// payload) the decoder will allocate for, so garbage bytes cannot demand
// gigabytes before the checksum is even checked.
const maxBlob = 64 << 20

// --- encoding ---

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFixed64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendValue encodes a value as kind byte + payload: strings are
// length-prefixed bytes, ints and times are fixed 8-byte little-endian
// two's-complement, floats are their IEEE-754 bits.
func appendValue(b []byte, v value.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case value.KindString:
		return appendString(b, v.Str())
	case value.KindInt:
		return appendFixed64(b, uint64(v.IntVal()))
	case value.KindFloat:
		return appendFixed64(b, math.Float64bits(v.FloatVal()))
	case value.KindTime:
		return appendFixed64(b, uint64(v.TimeVal().UnixNano()))
	default:
		panic(fmt.Sprintf("durable: cannot encode value kind %s", v.Kind()))
	}
}

func appendTuple(b []byte, t storage.Tuple) []byte {
	b = appendUvarint(b, uint64(len(t)))
	for _, v := range t {
		b = appendValue(b, v)
	}
	return b
}

func appendTuples(b []byte, ts []storage.Tuple) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendTuple(b, t)
	}
	return b
}

// EncodeEntry renders an entry as its canonical binary payload (without
// the log record framing, which Log.Append adds).
func EncodeEntry(e Entry) []byte {
	return appendEntry(nil, e)
}

// appendEntry appends an entry's canonical encoding — its type byte, then
// the type's fields — to b. Log records and checkpoint files both carry
// entries in this form.
func appendEntry(b []byte, e Entry) []byte {
	b = append(b, byte(e.Type))
	switch e.Type {
	case EntryInsert, EntryDelete:
		b = appendString(b, e.Relation)
		b = appendTuples(b, e.Tuples)
	case EntryCommit:
		b = appendUvarint(b, uint64(e.Commit.Version))
		b = appendFixed64(b, uint64(e.Commit.Timestamp))
		b = appendString(b, e.Commit.Message)
		b = appendUvarint(b, uint64(e.Commit.Tuples))
		b = appendString(b, e.Commit.Digest)
	case EntryDefineView:
		b = appendString(b, e.ViewSrc)
		b = appendUvarint(b, uint64(len(e.Cites)))
		for _, c := range e.Cites {
			b = appendString(b, c.Query)
			b = appendUvarint(b, uint64(len(c.Fields)))
			for _, f := range c.Fields {
				b = appendString(b, f)
			}
		}
		b = appendUvarint(b, uint64(len(e.Static)))
		for _, kv := range e.Static {
			b = appendString(b, kv[0])
			b = appendString(b, kv[1])
		}
	case EntrySetPolicy:
		b = appendString(b, e.Policy)
	default:
		panic(fmt.Sprintf("durable: cannot encode entry type %d", e.Type))
	}
	return b
}

// --- decoding ---

// decoder is a bounds-checked cursor over a payload. Every accessor
// records the first failure and returns zero values afterwards, so decode
// paths read linearly and check err once. It never panics on any input —
// the fuzz target's contract.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a length prefix and validates it against the remaining
// bytes, assuming each element occupies at least min bytes.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(maxBlob) || int(n) > (len(d.b)-d.off)/max(min, 1)+1 {
		d.fail("impossible count %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(maxBlob) || int(n) > len(d.b)-d.off {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("truncated fixed64 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) value() value.Value {
	if d.err != nil {
		return value.Value{}
	}
	if d.off >= len(d.b) {
		d.fail("truncated value kind")
		return value.Value{}
	}
	kind := value.Kind(d.b[d.off])
	d.off++
	switch kind {
	case value.KindString:
		return value.String(d.str())
	case value.KindInt:
		return value.Int(int64(d.fixed64()))
	case value.KindFloat:
		return value.Float(math.Float64frombits(d.fixed64()))
	case value.KindTime:
		return value.Time(timeFromNanos(int64(d.fixed64())))
	default:
		d.fail("unknown value kind %d", uint8(kind))
		return value.Value{}
	}
}

func (d *decoder) tuple() storage.Tuple {
	n := d.count(2) // kind byte + at least 1 payload byte
	if d.err != nil {
		return nil
	}
	t := make(storage.Tuple, n)
	for i := range t {
		t[i] = d.value()
		if d.err != nil {
			return nil
		}
	}
	return t
}

func (d *decoder) tuples() []storage.Tuple {
	n := d.count(1)
	if d.err != nil || n == 0 {
		// nil for an empty list, so encode/decode round-trips exactly.
		return nil
	}
	ts := make([]storage.Tuple, 0, n)
	for i := 0; i < n; i++ {
		t := d.tuple()
		if d.err != nil {
			return nil
		}
		ts = append(ts, t)
	}
	return ts
}

// entry reads one entry written by appendEntry.
func (d *decoder) entry() Entry {
	if d.err != nil {
		return Entry{}
	}
	if d.off >= len(d.b) {
		d.fail("truncated entry at offset %d", d.off)
		return Entry{}
	}
	e := Entry{Type: EntryType(d.b[d.off])}
	d.off++
	switch e.Type {
	case EntryInsert, EntryDelete:
		e.Relation = d.str()
		e.Tuples = d.tuples()
	case EntryCommit:
		e.Commit.Version = int64(d.uvarint())
		e.Commit.Timestamp = int64(d.fixed64())
		e.Commit.Message = d.str()
		e.Commit.Tuples = int64(d.uvarint())
		e.Commit.Digest = d.str()
	case EntryDefineView:
		e.ViewSrc = d.str()
		nc := d.count(2)
		for i := 0; i < nc && d.err == nil; i++ {
			var c ViewCite
			c.Query = d.str()
			nf := d.count(1)
			for j := 0; j < nf && d.err == nil; j++ {
				c.Fields = append(c.Fields, d.str())
			}
			e.Cites = append(e.Cites, c)
		}
		ns := d.count(2)
		for i := 0; i < ns && d.err == nil; i++ {
			e.Static = append(e.Static, [2]string{d.str(), d.str()})
		}
	case EntrySetPolicy:
		e.Policy = d.str()
	default:
		d.fail("unknown entry type %d", uint8(e.Type))
	}
	return e
}

// DecodeEntry parses a payload produced by EncodeEntry. Malformed input of
// any shape reports an error satisfying errors.Is(err, ErrCorrupt) and
// never panics.
func DecodeEntry(payload []byte) (Entry, error) {
	d := &decoder{b: payload}
	e := d.entry()
	if d.err != nil {
		return Entry{}, d.err
	}
	if d.off != len(payload) {
		return Entry{}, fmt.Errorf("%w: %d trailing bytes after %s entry", ErrCorrupt, len(payload)-d.off, e.Type)
	}
	return e, nil
}
