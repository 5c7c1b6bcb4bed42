package schema

import (
	"reflect"
	"testing"
)

// FuzzParseRelation checks the round trip the durability manifest relies
// on to pin a data directory's schema across restarts: whatever
// ParseRelation accepts renders (String) to text that parses back to the
// same relation and renders to the same text again.
func FuzzParseRelation(f *testing.F) {
	for _, seed := range []string{
		"Family(FID* int, FName string, Desc string)",
		"FamilyIntro(FID* int, Text string)",
		"Snap(At time, Val float)",
		"  R ( a int ,b* string )  ",
		"R(a** int, a* int)",
		"R()",
		"R(a int",
		"(a int)",
		"R(a int, a string)",
		"R(a bytes)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ParseRelation(src)
		if err != nil {
			return
		}
		text := r.String()
		back, err := ParseRelation(text)
		if err != nil {
			t.Fatalf("%q rendered as %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("%q rendered as %q, which parses to %+v, not %+v", src, text, back, r)
		}
		if again := back.String(); again != text {
			t.Fatalf("%q rendered as %q, then as %q", src, text, again)
		}
	})
}
