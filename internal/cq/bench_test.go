package cq

import (
	"fmt"
	"testing"
)

// servingShapes are the four cite shapes of the serving benchmark's cold
// traffic, each with one constant, with their body sizes and
// fingerprints.
var servingShapes = []struct {
	src         string
	atoms       int
	fingerprint string
	consts      int
}{
	{"Q(FName, Desc) :- Family(%[1]d, FName, Desc)", 1, "Q(v0, v1) :- Family($1, v0, v1)", 1},
	{"Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)", 2, "Q(v0, v1) :- Family($1, v0, v2), FamilyIntro($2, v1)", 2},
	{"Q(TName, Type) :- Target(%[1]d, FID, TName, Type)", 1, "Q(v0, v1) :- Target($1, v2, v0, v1)", 1},
	{"Q(FName, TName) :- Target(%[1]d, FID, TName, Type), Family(FID, FName, Desc)", 2, "Q(v0, v1) :- Target($1, v2, v1, v3), Family(v2, v0, v4)", 1},
}

// servingTexts renders n serving queries: op i has shape i mod 4 and a
// constant of its own, so no two texts are equal.
func servingTexts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(servingShapes[i%len(servingShapes)].src, 1+i)
	}
	return out
}

// BenchmarkParse parses the serving shapes, a fresh constant per op, as
// the engine parses every cited text; each op checks the body it
// parsed.
func BenchmarkParse(b *testing.B) {
	texts := servingTexts(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := texts[i%len(texts)]
		q, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if want := servingShapes[i%len(servingShapes)].atoms; len(q.Body) != want {
			b.Fatalf("%s: parsed %d body atoms, want %d", src, len(q.Body), want)
		}
	}
}

// BenchmarkQueryString renders parsed serving queries, as every pin
// renders its query text; each op checks the rendering is the text the
// query was parsed from.
func BenchmarkQueryString(b *testing.B) {
	texts := servingTexts(1024)
	qs := make([]*Query, len(texts))
	for i, src := range texts {
		qs[i] = MustParse(src)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		if s := qs[j].String(); s != texts[j] {
			b.Fatalf("rendered %q, want %q", s, texts[j])
		}
	}
}

// BenchmarkFingerprint fingerprints parsed serving queries, as the
// query-statistics store does for every distinct text; each op checks
// the fingerprint and the constant count.
func BenchmarkFingerprint(b *testing.B) {
	texts := servingTexts(1024)
	qs := make([]*Query, len(texts))
	for i, src := range texts {
		qs[i] = MustParse(src)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		sh := servingShapes[j%len(servingShapes)]
		fp, consts := qs[j].Fingerprint()
		if fp != sh.fingerprint || len(consts) != sh.consts {
			b.Fatalf("%s: fingerprint %q with %d constants, want %q with %d", texts[j], fp, len(consts), sh.fingerprint, sh.consts)
		}
	}
}
