// Package format defines the structured citation record produced by
// citation functions and renders it in the output formats the paper names
// (§2: "human readable, BibTex, RIS or XML"), plus JSON.
//
// A Record maps citation fields (author, title, identifier, version, …) to
// ordered, deduplicated value lists. Records form a commutative, idempotent
// monoid under Merge, which is the "union" interpretation of the paper's
// abstract combination operators.
package format

import (
	"cmp"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Conventional citation field names. Any string is a legal field; these
// are the ones the built-in formatters give special treatment.
const (
	FieldAuthor     = "author"
	FieldTitle      = "title"
	FieldDatabase   = "database"
	FieldIdentifier = "identifier"
	FieldVersion    = "version"
	FieldDate       = "date"
	FieldURL        = "url"
	FieldNote       = "note"
)

// fieldOrder fixes the rendering order of known fields; unknown fields
// follow alphabetically.
var fieldOrder = map[string]int{
	FieldAuthor:     0,
	FieldTitle:      1,
	FieldDatabase:   2,
	FieldIdentifier: 3,
	FieldVersion:    4,
	FieldDate:       5,
	FieldURL:        6,
	FieldNote:       7,
}

// Record is a structured citation: field → ordered distinct values.
type Record map[string][]string

// NewRecord builds a record from alternating field, value pairs.
func NewRecord(pairs ...string) Record {
	if len(pairs)%2 != 0 {
		panic("format: NewRecord requires field/value pairs")
	}
	r := Record{}
	for i := 0; i < len(pairs); i += 2 {
		r.Add(pairs[i], pairs[i+1])
	}
	return r
}

// Add appends a value to a field unless already present.
func (r Record) Add(field, value string) {
	for _, v := range r[field] {
		if v == value {
			return
		}
	}
	r[field] = append(r[field], value)
}

// Clone returns a deep copy.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for f, vs := range r {
		out[f] = append([]string(nil), vs...)
	}
	return out
}

// Merge unions o into a copy of r (per-field value-set union, preserving
// r-first order). Merge is commutative up to value order and idempotent.
func (r Record) Merge(o Record) Record {
	out := r.Clone()
	out.AddAll(o)
	return out
}

// AddAll unions o into r in place: Add of each of o's values, in order.
func (r Record) AddAll(o Record) {
	for f, vs := range o {
		for _, v := range vs {
			r.Add(f, v)
		}
	}
}

// Intersect keeps only (field, value) pairs present in both records — the
// "join" interpretation of the combination operators.
func (r Record) Intersect(o Record) Record {
	out := Record{}
	for f, vs := range r {
		for _, v := range vs {
			for _, w := range o[f] {
				if v == w {
					out.Add(f, v)
					break
				}
			}
		}
	}
	return out
}

// Size counts (field, value) pairs.
func (r Record) Size() int {
	n := 0
	for _, vs := range r {
		n += len(vs)
	}
	return n
}

// IsEmpty reports whether the record has no values.
func (r Record) IsEmpty() bool { return r.Size() == 0 }

// Equal reports field-wise set equality.
func (r Record) Equal(o Record) bool {
	if len(normalize(r)) != len(normalize(o)) {
		return false
	}
	rn, on := normalize(r), normalize(o)
	for f, vs := range rn {
		ws, ok := on[f]
		if !ok || len(vs) != len(ws) {
			return false
		}
		for i := range vs {
			if vs[i] != ws[i] {
				return false
			}
		}
	}
	return true
}

func normalize(r Record) map[string][]string {
	out := make(map[string][]string, len(r))
	for f, vs := range r {
		if len(vs) == 0 {
			continue
		}
		sorted := append([]string(nil), vs...)
		sort.Strings(sorted)
		out[f] = sorted
	}
	return out
}

// Fields returns the record's field names in canonical rendering order.
func (r Record) Fields() []string { return r.appendFields(make([]string, 0, len(r))) }

// appendFields appends the record's non-empty field names to dst, sorted
// in canonical rendering order, and returns the extended slice.
func (r Record) appendFields(dst []string) []string {
	start := len(dst)
	for f, vs := range r {
		if len(vs) > 0 {
			dst = append(dst, f)
		}
	}
	slices.SortFunc(dst[start:], compareFields)
	return dst
}

// compareFields orders field names for rendering: the known fields in
// fieldOrder, then the rest by name.
func compareFields(a, b string) int {
	oa, aok := fieldOrder[a]
	ob, bok := fieldOrder[b]
	switch {
	case aok && bok:
		return cmp.Compare(oa, ob)
	case aok:
		return -1
	case bok:
		return 1
	default:
		return strings.Compare(a, b)
	}
}

// Text renders a human-readable one-line citation in the conventional
// field order, abbreviating author lists longer than etAlThreshold with
// "et al." — the paper's §3 "size of citations" convention.
const etAlThreshold = 3

// Text renders the record as human-readable text.
func Text(r Record) string {
	var b [256]byte
	return string(AppendText(b[:0], r))
}

// AppendText appends r's Text rendering to dst and returns the extended
// buffer: the fields in Fields order, each its values joined, the parts
// joined by ". " and closed by ".".
func AppendText(dst []byte, r Record) []byte {
	var fb [8]string
	for i, f := range r.appendFields(fb[:0]) {
		if i > 0 {
			dst = append(dst, ". "...)
		}
		vs, sep := r[f], "; "
		switch f {
		case FieldAuthor:
			sep = ", "
			if len(vs) > etAlThreshold {
				dst = appendJoin(dst, vs[:etAlThreshold], sep)
				dst = append(dst, " et al."...)
				continue
			}
		case FieldVersion:
			sep = ", "
			dst = append(dst, "version "...)
		case FieldDate:
			sep = ", "
			dst = append(dst, "accessed "...)
		}
		dst = appendJoin(dst, vs, sep)
	}
	return append(dst, '.')
}

// appendJoin appends vs joined by sep to dst.
func appendJoin(dst []byte, vs []string, sep string) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = append(dst, v...)
	}
	return dst
}

// BibTeX renders the record as a @misc BibTeX entry with the given key.
func BibTeX(r Record, key string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "@misc{%s,\n", key)
	write := func(name string, vals []string, sep string) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(&b, "  %s = {%s},\n", name, strings.Join(vals, sep))
	}
	write("author", r[FieldAuthor], " and ")
	write("title", r[FieldTitle], "; ")
	write("howpublished", r[FieldDatabase], "; ")
	write("note", append(append([]string(nil), r[FieldIdentifier]...), r[FieldNote]...), "; ")
	write("edition", r[FieldVersion], "; ")
	write("year", r[FieldDate], "; ")
	write("url", r[FieldURL], " ")
	for _, f := range r.Fields() {
		if _, known := fieldOrder[f]; !known {
			write(f, r[f], "; ")
		}
	}
	b.WriteString("}")
	return b.String()
}

// RIS renders the record in RIS tagged format (TY DBASE … ER).
func RIS(r Record) string {
	var b strings.Builder
	b.WriteString("TY  - DBASE\n")
	tag := func(t string, vals []string) {
		for _, v := range vals {
			fmt.Fprintf(&b, "%s  - %s\n", t, v)
		}
	}
	tag("AU", r[FieldAuthor])
	tag("TI", r[FieldTitle])
	tag("T2", r[FieldDatabase])
	tag("ID", r[FieldIdentifier])
	tag("ET", r[FieldVersion])
	tag("DA", r[FieldDate])
	tag("UR", r[FieldURL])
	tag("N1", r[FieldNote])
	for _, f := range r.Fields() {
		if _, known := fieldOrder[f]; !known {
			tag("KW", r[f])
		}
	}
	b.WriteString("ER  - \n")
	return b.String()
}

// xmlField is the XML encoding element for one field/value pair.
type xmlField struct {
	XMLName xml.Name `xml:"field"`
	Name    string   `xml:"name,attr"`
	Value   string   `xml:",chardata"`
}

type xmlCitation struct {
	XMLName xml.Name `xml:"citation"`
	Fields  []xmlField
}

// XML renders the record as a <citation> element with <field> children.
func XML(r Record) (string, error) {
	doc := xmlCitation{}
	for _, f := range r.Fields() {
		for _, v := range r[f] {
			doc.Fields = append(doc.Fields, xmlField{Name: f, Value: v})
		}
	}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("format: xml: %w", err)
	}
	return string(out), nil
}

// MarshalJSON renders the record as the canonical JSON object: fields
// sorted, empty fields omitted, value lists in insertion order. This is
// the single wire encoding of a record — JSON (the file renderer) and the
// network server's response envelopes both marshal through here, so a
// citation renders identically on disk and on the wire. A Record
// round-trips: unmarshaling the output into a Record yields an Equal one.
func (r Record) MarshalJSON() ([]byte, error) {
	m := make(map[string][]string, len(r))
	for f, vs := range r {
		if len(vs) > 0 {
			m[f] = vs
		}
	}
	return json.Marshal(m)
}

// JSON renders the record as a canonical JSON object (fields sorted).
func JSON(r Record) (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("format: json: %w", err)
	}
	return string(out), nil
}
