package format

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"
)

func sample() Record {
	return NewRecord(
		FieldAuthor, "Alice Smith",
		FieldAuthor, "Bob Jones",
		FieldDatabase, "GtoPdb",
		FieldVersion, "2026.1",
	)
}

func TestNewRecordPanicsOnOddPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRecord accepted odd pair count")
		}
	}()
	NewRecord("author")
}

func TestAddDeduplicates(t *testing.T) {
	r := Record{}
	r.Add(FieldAuthor, "A")
	r.Add(FieldAuthor, "A")
	r.Add(FieldAuthor, "B")
	if len(r[FieldAuthor]) != 2 {
		t.Errorf("authors %v", r[FieldAuthor])
	}
}

func TestMergeUnion(t *testing.T) {
	a := NewRecord(FieldAuthor, "A", FieldDatabase, "X")
	b := NewRecord(FieldAuthor, "B", FieldAuthor, "A", FieldTitle, "T")
	m := a.Merge(b)
	if len(m[FieldAuthor]) != 2 || len(m[FieldDatabase]) != 1 || len(m[FieldTitle]) != 1 {
		t.Errorf("merge %v", m)
	}
	// Merge does not mutate operands.
	if len(a[FieldAuthor]) != 1 {
		t.Error("Merge mutated receiver")
	}
	// Commutative up to set equality.
	if !m.Equal(b.Merge(a)) {
		t.Error("Merge not commutative")
	}
	// Idempotent.
	if !m.Equal(m.Merge(m)) {
		t.Error("Merge not idempotent")
	}
}

func TestIntersect(t *testing.T) {
	a := NewRecord(FieldAuthor, "A", FieldAuthor, "B", FieldDatabase, "X")
	b := NewRecord(FieldAuthor, "B", FieldDatabase, "Y")
	i := a.Intersect(b)
	if len(i[FieldAuthor]) != 1 || i[FieldAuthor][0] != "B" {
		t.Errorf("intersect authors %v", i[FieldAuthor])
	}
	if len(i[FieldDatabase]) != 0 {
		t.Errorf("intersect database %v", i[FieldDatabase])
	}
}

func TestSizeAndEmpty(t *testing.T) {
	if sample().Size() != 4 {
		t.Errorf("Size = %d", sample().Size())
	}
	if (Record{}).Size() != 0 || !(Record{}).IsEmpty() {
		t.Error("empty record misreported")
	}
	if sample().IsEmpty() {
		t.Error("non-empty record reported empty")
	}
}

func TestEqualIgnoresOrder(t *testing.T) {
	a := NewRecord(FieldAuthor, "A", FieldAuthor, "B")
	b := NewRecord(FieldAuthor, "B", FieldAuthor, "A")
	if !a.Equal(b) {
		t.Error("order-insensitive equality failed")
	}
	c := NewRecord(FieldAuthor, "A")
	if a.Equal(c) {
		t.Error("different records equal")
	}
	// Empty value lists are ignored.
	d := a.Clone()
	d["empty"] = nil
	if !a.Equal(d) {
		t.Error("empty field affects equality")
	}
}

func TestFieldsOrder(t *testing.T) {
	r := NewRecord("zcustom", "1", FieldDate, "2026", FieldAuthor, "A")
	f := r.Fields()
	if f[0] != FieldAuthor || f[len(f)-1] != "zcustom" {
		t.Errorf("Fields order %v", f)
	}
}

func TestTextEtAl(t *testing.T) {
	r := NewRecord(
		FieldAuthor, "A", FieldAuthor, "B", FieldAuthor, "C", FieldAuthor, "D",
	)
	out := Text(r)
	if !strings.Contains(out, "et al.") {
		t.Errorf("no et-al abbreviation: %q", out)
	}
	if strings.Contains(out, "D") {
		t.Errorf("4th author not elided: %q", out)
	}
	short := NewRecord(FieldAuthor, "A", FieldAuthor, "B")
	if strings.Contains(Text(short), "et al.") {
		t.Errorf("et al. applied to short list: %q", Text(short))
	}
}

func TestTextFieldDecorations(t *testing.T) {
	out := Text(sample())
	if !strings.Contains(out, "version 2026.1") {
		t.Errorf("version not decorated: %q", out)
	}
	if !strings.HasSuffix(out, ".") {
		t.Errorf("no trailing period: %q", out)
	}
}

func TestBibTeX(t *testing.T) {
	out := BibTeX(sample(), "key1")
	for _, want := range []string{"@misc{key1,", "author = {Alice Smith and Bob Jones}", "howpublished = {GtoPdb}", "edition = {2026.1}"} {
		if !strings.Contains(out, want) {
			t.Errorf("BibTeX missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "}") {
		t.Errorf("unterminated entry:\n%s", out)
	}
	withCustom := sample()
	withCustom.Add("curator", "Carol")
	if !strings.Contains(BibTeX(withCustom, "k"), "curator = {Carol}") {
		t.Error("custom field dropped from BibTeX")
	}
}

func TestRIS(t *testing.T) {
	out := RIS(sample())
	if !strings.HasPrefix(out, "TY  - DBASE\n") {
		t.Errorf("RIS prefix: %q", out)
	}
	if !strings.HasSuffix(out, "ER  - \n") {
		t.Errorf("RIS suffix: %q", out)
	}
	if !strings.Contains(out, "AU  - Alice Smith\n") || !strings.Contains(out, "AU  - Bob Jones\n") {
		t.Errorf("RIS authors: %q", out)
	}
}

func TestXML(t *testing.T) {
	out, err := XML(sample())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `<field name="author">Alice Smith</field>`) {
		t.Errorf("XML: %s", out)
	}
	// Escaping.
	esc, err := XML(NewRecord(FieldTitle, "a < b & c"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(esc, "a < b & c") {
		t.Errorf("XML not escaped: %s", esc)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	out, err := JSON(sample())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string][]string
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, out)
	}
	if len(m[FieldAuthor]) != 2 {
		t.Errorf("JSON authors %v", m[FieldAuthor])
	}
}

func TestRecordMarshalJSONRoundTrip(t *testing.T) {
	r := sample()
	r["empty"] = nil // empty fields must be omitted, not emitted as null
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("marshaled record does not decode into a Record: %v\n%s", err, raw)
	}
	if _, ok := back["empty"]; ok {
		t.Error("empty field survived the round trip")
	}
	delete(r, "empty")
	if !back.Equal(r) {
		t.Errorf("round trip not field-wise equal:\n got %v\nwant %v", back, r)
	}
	// Field-by-field: values keep their insertion order on the wire.
	for f, vs := range r {
		ws := back[f]
		if len(ws) != len(vs) {
			t.Fatalf("field %s: %d values, want %d", f, len(ws), len(vs))
		}
		for i := range vs {
			if ws[i] != vs[i] {
				t.Errorf("field %s[%d]: %q, want %q", f, i, ws[i], vs[i])
			}
		}
	}
}

func TestRecordMarshalJSONMatchesRenderer(t *testing.T) {
	// The wire encoding and the JSON renderer must describe the same
	// object: unmarshaling either yields the same map.
	r := sample()
	rendered, err := JSON(r)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var fromRenderer, fromWire map[string][]string
	if err := json.Unmarshal([]byte(rendered), &fromRenderer); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wire, &fromWire); err != nil {
		t.Fatal(err)
	}
	if !Record(fromRenderer).Equal(Record(fromWire)) {
		t.Errorf("renderer and wire encodings diverge:\n%s\n%s", rendered, wire)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := sample()
	c := a.Clone()
	c.Add(FieldAuthor, "New")
	if len(a[FieldAuthor]) != 2 {
		t.Error("Clone shares slices")
	}
}

// joinText is the strings.Join renderer Text replaced: each field's
// values joined per its decoration, the parts joined by ". ".
func joinText(r Record) string {
	var parts []string
	for _, f := range r.Fields() {
		vs := r[f]
		switch f {
		case FieldAuthor:
			if len(vs) > etAlThreshold {
				parts = append(parts, strings.Join(vs[:etAlThreshold], ", ")+" et al.")
			} else {
				parts = append(parts, strings.Join(vs, ", "))
			}
		case FieldVersion:
			parts = append(parts, "version "+strings.Join(vs, ", "))
		case FieldDate:
			parts = append(parts, "accessed "+strings.Join(vs, ", "))
		default:
			parts = append(parts, strings.Join(vs, "; "))
		}
	}
	return strings.Join(parts, ". ") + "."
}

// TestAppendTextMatchesJoin: Text and AppendText render random records
// byte for byte as the strings.Join renderer — records with every known
// field, unknown fields (which sort by name), author lists on both sides
// of etAlThreshold, empty value lists, and values holding quotes,
// separators, non-ASCII runes and control characters — and AppendText
// keeps what dst held.
func TestAppendTextMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2017))
	fields := []string{FieldAuthor, FieldTitle, FieldDatabase, FieldIdentifier, FieldVersion, FieldDate, FieldURL, FieldNote,
		"zeta", "alpha", "Keyword", "", "a.b"}
	values := []string{"", "Alice", "Bob Jones", `it's "quoted"`, "a, b; c.", "ünïcödé — 日本語", "tab\tnew\nline\x00nul", " ", "11", "2026-01-15T00:00:00Z"}
	for i := range 2000 {
		r := Record{}
		for range rng.IntN(8) {
			f := fields[rng.IntN(len(fields))]
			if rng.IntN(6) == 0 {
				r[f] = nil // an empty list is no field
				continue
			}
			for range 1 + rng.IntN(5) {
				r.Add(f, values[rng.IntN(len(values))])
			}
		}
		want := joinText(r)
		if got := Text(r); got != want {
			t.Fatalf("record %d %q: Text\n%q\nwant\n%q", i, r, got, want)
		}
		if got := string(AppendText([]byte("prefix "), r)); got != "prefix "+want {
			t.Fatalf("record %d %q: AppendText\n%q\nwant\n%q", i, r, got, "prefix "+want)
		}
	}
}
