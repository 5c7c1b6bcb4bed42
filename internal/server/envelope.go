package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// A /cite reply is written from bytes the result cache already holds.
// encoding/json renders a citation once, when it is computed, exactly as
// the indenting encoder places it inside a single-result envelope; every
// reply that carries it — hit, miss, coalesced, versioned, batch, traced
// — is then assembled around those bytes in a pooled buffer. The output
// is byte-identical to encoding the whole reply with writeJSON, because
// each part either is that encoder's own output for the same value at
// the same depth or is the fixed framing between members it would emit.
// Two facts carry the argument:
//
//   - Indentation is positional. The indenting encoder starts every line
//     of a nested value with the prefix plus one indent per level, so a
//     value encoded alone with the prefix of its depth matches the value
//     inside the whole reply.
//   - Encoded JSON has no raw newline inside a string, so every newline
//     in the cached bytes starts a line of indentation. Moving a value
//     one level deeper, as a batch does, inserts two spaces after each
//     newline, and the newline before a member indented to depth one of
//     the result object can only be that member's own.

// encodedCite is one successful citation as the result cache keeps it:
// its wire form (CiteResult) already encoded. Beside the bytes it keeps
// only what validates it — the relation read-set and the origin of the
// content it read (citation.Result.Origin); the query is the cache
// key's, and the record, text and pin the bytes were rendered from are
// dropped.
type encodedCite struct {
	reads  []string
	origin uint64
	// body is the "result" object of a single-result envelope: indented
	// one level, without a trailing newline, and without the "cache"
	// member, which differs per reply and belongs at cacheAt.
	body    []byte
	cacheAt int
}

// cacheMember is the "cache" member as encodeCite finds it in the result
// object, with the placeholder value it encodes and then cuts out.
const cacheMember = ",\n    \"cache\": \"hit\""

// encodeCite encodes a successful citation, whose content has the given
// origin, for the result cache. The encoding lands in a pooled buffer,
// and the entry keeps one copy of exactly its size.
func encodeCite(res CiteResult, origin uint64) (*encodedCite, error) {
	res.Cache = "hit"
	rb := getReplyBuf()
	defer putReplyBuf(rb)
	b, err := rb.encode(res)
	if err != nil {
		return nil, fmt.Errorf("%w: encode citation: %v", errEngineFault, err)
	}
	at := bytes.Index(b, []byte(cacheMember))
	if at < 0 {
		return nil, fmt.Errorf("%w: encode citation: no cache member", errEngineFault)
	}
	body := make([]byte, len(b)-len(cacheMember))
	copy(body, b[:at])
	copy(body[at:], b[at+len(cacheMember):])
	return &encodedCite{reads: res.Reads, origin: origin, body: body, cacheAt: at}, nil
}

// appendTo appends the result object with outcome ("hit", "miss" or
// "coalesced") as its "cache" member, extra spaces deeper than in a
// single-result envelope.
func (e *encodedCite) appendTo(b []byte, outcome, extra string) []byte {
	b = appendDeeper(b, e.body[:e.cacheAt], extra)
	b = append(b, ",\n    "...)
	b = append(b, extra...)
	b = append(b, `"cache": "`...)
	b = append(b, outcome...)
	b = append(b, '"')
	return appendDeeper(b, e.body[e.cacheAt:], extra)
}

// appendDeeper appends encoded JSON with extra inserted after every
// newline, which indents it further: a raw newline only ever ends a
// line of indentation.
func appendDeeper(b, src []byte, extra string) []byte {
	for extra != "" {
		i := bytes.IndexByte(src, '\n')
		if i < 0 {
			break
		}
		b = append(b, src[:i+1]...)
		b = append(b, extra...)
		src = src[i+1:]
	}
	return append(b, src...)
}

// citeOutcome is one batch position's result, on its way to the reply
// and the per-query statistics.
type citeOutcome struct {
	query string
	cite  *encodedCite // nil when the position failed
	cache string       // "hit", "miss" or "coalesced"; "" on failure
	err   error
}

// writeCite writes a 200 /cite reply: one result when single, else the
// batch's results, each failed position as its query and error, and the
// request's span tree when echo is set. It returns the bytes written.
// The reply is assembled before anything is written, so an encoding
// error leaves the response untouched for the caller to report.
func writeCite(w http.ResponseWriter, epoch int64, version int, single bool, outs []citeOutcome, echo *trace.TraceSnapshot) (int, error) {
	rb := getReplyBuf()
	defer putReplyBuf(rb)
	b := append(rb.out[:0], "{\n  \"epoch\": "...)
	b = strconv.AppendInt(b, epoch, 10)
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendInt(b, int64(version), 10)
	if single {
		b = append(b, ",\n  \"result\": "...)
		b = outs[0].cite.appendTo(b, outs[0].cache, "")
	} else {
		b = append(b, ",\n  \"results\": ["...)
		for i, o := range outs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			if o.cite != nil {
				b = o.cite.appendTo(b, o.cache, "  ")
				continue
			}
			v, err := rb.encode(CiteResult{Query: o.query, Error: o.err.Error()})
			if err != nil {
				return 0, err
			}
			b = appendDeeper(b, v, "  ")
		}
		b = append(b, "\n  ]"...)
	}
	if echo != nil {
		v, err := rb.encode(echo)
		if err != nil {
			return 0, err
		}
		b = append(b, ",\n  \"trace\": "...)
		b = append(b, v...)
	}
	b = append(b, "\n}\n"...)
	rb.out = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	return w.Write(b)
}

// replyBuf is the pooled scratch of one reply: the reply itself and an
// encoder for the values still encoded per reply (a batch's failures,
// the trace echo) or once per citation (encodeCite). The encoder keeps
// its indentation buffer, so a warm replyBuf encodes without growing.
type replyBuf struct {
	out []byte
	val bytes.Buffer
	enc *json.Encoder // onto val, indented as a member of a /cite envelope
}

var replyBufs = sync.Pool{New: func() any {
	rb := new(replyBuf)
	rb.enc = json.NewEncoder(&rb.val)
	rb.enc.SetIndent("  ", "  ")
	return rb
}}

// maxPooledReply bounds the buffers the pool keeps, so one large batch
// does not pin its reply's memory.
const maxPooledReply = 64 << 10

func getReplyBuf() *replyBuf { return replyBufs.Get().(*replyBuf) }

func putReplyBuf(rb *replyBuf) {
	if cap(rb.out) <= maxPooledReply && rb.val.Cap() <= maxPooledReply {
		replyBufs.Put(rb)
	}
}

// encode renders v as the indenting encoder writes a member value of a
// /cite envelope, without the trailing newline. The bytes are valid
// until the next encode.
func (rb *replyBuf) encode(v any) ([]byte, error) {
	rb.val.Reset()
	if err := rb.enc.Encode(v); err != nil {
		return nil, err
	}
	b := rb.val.Bytes()
	return b[:len(b)-1], nil
}
