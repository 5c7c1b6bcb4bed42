package cq

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// referenceString renders a query with a strings.Builder over per-term
// and per-atom strings. It is the reference String and AppendString
// must match byte for byte: pins carry the rendered query text, so a
// query's rendering must never change.
func referenceString(q *Query) string {
	var b strings.Builder
	if len(q.Params) > 0 {
		b.WriteString("lambda ")
		b.WriteString(strings.Join(q.Params, ", "))
		b.WriteString(". ")
	}
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(referenceTerm(t))
	}
	b.WriteString(") :- ")
	if len(q.Body) == 0 {
		b.WriteString("true")
		return b.String()
	}
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(referenceAtom(a))
	}
	return b.String()
}

func referenceAtom(a Atom) string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = referenceTerm(t)
	}
	return a.Predicate + "(" + strings.Join(parts, ", ") + ")"
}

func referenceTerm(t Term) string {
	if t.IsVar {
		return t.Name
	}
	v := t.Const
	if v.Kind() != value.KindString {
		return v.String()
	}
	out := make([]byte, 0, len(v.Str())+2)
	out = append(out, '\'')
	for i := 0; i < len(v.Str()); i++ {
		if v.Str()[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, v.Str()[i])
		}
	}
	out = append(out, '\'')
	return string(out)
}

// renderSeeds are TestRoundTrip's sources plus doubled quotes,
// negatives, floats and true bodies.
var renderSeeds = []string{
	"Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
	"lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
	"Q(X) :- R(X, 'it''s'), S(X, 42)",
	"C('k') :- true",
	"lambda A, B. V(A, B) :- R(A, B), S(B, A)",
	"Q(X) :- R(X, ''''), S('''a''', 'b''''c')",
	"Q(X, -7) :- R(X, -0, -12.5), S(-1e3, X)",
	"Q(X) :- R(X, 1.0, 0.25, 1e21, 1.5e-7, 100000.0)",
	"C('it''s', -3, 2.5) :- true",
	"CV2(D) :- D = 'IUPHAR/BPS Guide to PHARMACOLOGY...'",
	"λ FID. Q(FID, FName) :- Family(FID, FName, Desc), Desc = \"a 'quoted' text\"",
	"Q() :- R()",
	"Q(FName, TName) :- Target(7, FID, TName, Type), Family(FID, FName, Desc)",
}

// FuzzQueryString: Parse never panics, and whatever it accepts renders
// (String, AppendString after existing content) exactly as the
// strings.Builder reference does, and that rendering parses again.
func FuzzQueryString(f *testing.F) {
	for _, s := range renderSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		got, want := q.String(), referenceString(q)
		if got != want {
			t.Fatalf("%q: String() = %q, reference %q", src, got, want)
		}
		if app := string(q.AppendString([]byte("x"))); app != "x"+want {
			t.Fatalf("%q: AppendString = %q, want %q", src, app, "x"+want)
		}
		for _, a := range q.Body {
			if a.String() != referenceAtom(a) {
				t.Fatalf("%q: atom %q, reference %q", src, a.String(), referenceAtom(a))
			}
		}
		if _, err := Parse(got); err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, got, err)
		}
	})
}

// TestValidateMessages pins Validate's five error messages verbatim,
// and the order its checks run in: safety, then parameters in the
// head, then duplicate parameters.
func TestValidateMessages(t *testing.T) {
	x, y := Var("X"), Var("Y")
	body := []Atom{NewAtom("R", x)}
	for _, c := range []struct {
		name string
		q    *Query
		want string
	}{
		{"valid", &Query{Name: "Q", Params: []string{"X"}, Head: []Term{x}, Body: body}, ""},
		{"valid constant", &Query{Name: "C", Head: []Term{Const(value.String("k"))}}, ""},
		{"empty name", &Query{Head: []Term{y}}, "cq: query has empty name"},
		{"unsafe body-less", &Query{Name: "C", Head: []Term{Const(value.Int(1)), y}},
			"cq: C: head variable Y in a body-less query is unsafe"},
		{"head var not in body", &Query{Name: "Q", Head: []Term{x, y}, Body: body},
			"cq: Q: head variable Y does not appear in the body"},
		{"param not in head", &Query{Name: "V", Params: []string{"X", "Z"}, Head: []Term{x}, Body: body},
			"cq: V: parameter Z must appear in the head"},
		{"duplicate param", &Query{Name: "V", Params: []string{"X", "X"}, Head: []Term{x}, Body: body},
			"cq: V: duplicate parameter X"},
		{"param checks before duplicates", &Query{Name: "V", Params: []string{"X", "X", "Z"}, Head: []Term{x}, Body: body},
			"cq: V: parameter Z must appear in the head"},
		{"safety before params", &Query{Name: "V", Params: []string{"Z"}, Head: []Term{x, y}, Body: body},
			"cq: V: head variable Y does not appear in the body"},
	} {
		err := c.q.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v, want nil", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestValidateAllocatesNothing: validating a serving-shape query, which
// every cite does, allocates nothing, and neither does a parameterized
// view's.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, src := range []string{
		"Q(FName, TName) :- Target(7, FID, TName, Type), Family(FID, FName, Desc)",
		"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
	} {
		q := MustParse(src)
		if n := testing.AllocsPerRun(100, func() {
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Validate(%s): %v allocs per run, want 0", src, n)
		}
	}
}
