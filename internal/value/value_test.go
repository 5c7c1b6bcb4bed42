package value

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindString: "string",
		KindInt:    "int",
		KindFloat:  "float",
		KindTime:   "time",
		Kind(99):   "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := String("abc"); v.Kind() != KindString || v.Str() != "abc" {
		t.Errorf("String: %v", v)
	}
	if v := Int(-42); v.Kind() != KindInt || v.IntVal() != -42 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.FloatVal() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	ts := time.Date(2017, 5, 14, 9, 0, 0, 0, time.UTC)
	if v := Time(ts); v.Kind() != KindTime || !v.TimeVal().Equal(ts) {
		t.Errorf("Time: %v", v)
	}
}

func TestZeroValueIsEmptyString(t *testing.T) {
	var v Value
	if v.Kind() != KindString || v.Str() != "" {
		t.Errorf("zero Value = %v, want empty string", v)
	}
}

// TestAppendStringMatchesString: AppendString renders exactly String's
// bytes for every kind, including the float specials and times with
// and without sub-second digits, and appends after existing content.
func TestAppendStringMatchesString(t *testing.T) {
	for _, v := range []Value{
		String(""), String("it's"), Int(0), Int(-42), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(-1)),
		Float(1e300), Float(-1.5e-300), Float(100000), Float(1e6),
		Time(time.Date(2017, 5, 14, 9, 0, 0, 0, time.UTC)),
		Time(time.Date(1969, 12, 31, 23, 59, 59, 123456789, time.UTC)),
	} {
		if got := string(AppendString([]byte("x"), v)); got != "x"+v.String() {
			t.Errorf("AppendString(%s %v) = %q, want %q", v.Kind(), v, got, "x"+v.String())
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{String("hello"), "hello"},
		{Int(7), "7"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{Time(time.Date(2017, 5, 14, 9, 0, 0, 0, time.UTC)), "2017-05-14T09:00:00Z"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestQuote(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{String("plain"), "'plain'"},
		{String("it's"), "'it''s'"},
		{String(""), "''"},
		{Int(5), "5"},
		{Float(0.25), "0.25"},
	}
	for _, c := range cases {
		if got := c.v.Quote(); got != c.want {
			t.Errorf("Quote(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestAppendQuoteMatchesQuote: AppendQuote renders exactly Quote's bytes
// for every kind, after existing content, and a string longer than
// Quote's stack buffer quotes whole.
func TestAppendQuoteMatchesQuote(t *testing.T) {
	long := strings.Repeat("o'", 40)
	for _, c := range []struct {
		v    Value
		want string
	}{
		{String(""), "''"},
		{String("it's"), "'it''s'"},
		{String("''"), "''''''"},
		{String(long), "'" + strings.ReplaceAll(long, "'", "''") + "'"},
		{Int(-42), "-42"},
		{Float(math.Copysign(0, -1)), "-0"},
		{Float(math.NaN()), "NaN"},
		{Float(1e21), "1e+21"},
		{Time(time.Date(1969, 12, 31, 23, 59, 59, 123456789, time.UTC)), "1969-12-31T23:59:59.123456789Z"},
	} {
		if got := c.v.Quote(); got != c.want {
			t.Errorf("Quote(%s %v) = %q, want %q", c.v.Kind(), c.v, got, c.want)
		}
		if got := string(AppendQuote([]byte("x"), c.v)); got != "x"+c.want {
			t.Errorf("AppendQuote(%s %v) = %q, want %q", c.v.Kind(), c.v, got, "x"+c.want)
		}
	}
}

func TestEqualAndMapKey(t *testing.T) {
	if !String("x").Equal(String("x")) {
		t.Error("equal strings not Equal")
	}
	if String("5").Equal(Int(5)) {
		t.Error("cross-kind values must not be Equal")
	}
	m := map[Value]int{String("a"): 1, Int(1): 2}
	if m[String("a")] != 1 || m[Int(1)] != 2 {
		t.Error("values unusable as map keys")
	}
}

func TestCompareOrdering(t *testing.T) {
	vals := []Value{Int(3), String("b"), Float(1.5), Int(-1), String("a"), Time(time.Unix(0, 5))}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
	// Kind order first: string < int < float < time.
	wantKinds := []Kind{KindString, KindString, KindInt, KindInt, KindFloat, KindTime}
	for i, v := range vals {
		if v.Kind() != wantKinds[i] {
			t.Fatalf("position %d: kind %v, want %v (order %v)", i, v.Kind(), wantKinds[i], vals)
		}
	}
	if vals[0].Str() != "a" || vals[1].Str() != "b" {
		t.Errorf("string payload order wrong: %v", vals[:2])
	}
	if vals[2].IntVal() != -1 || vals[3].IntVal() != 3 {
		t.Errorf("int payload order wrong: %v", vals[2:4])
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and reflexivity via quick checks on ints and strings.
	antisym := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	reflexive := func(s string) bool { return String(s).Compare(String(s)) == 0 }
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
	transitiveish := func(a, b, c int64) bool {
		x, y, z := Int(a), Int(b), Int(c)
		if x.Compare(y) <= 0 && y.Compare(z) <= 0 {
			return x.Compare(z) <= 0
		}
		return true
	}
	if err := quick.Check(transitiveish, nil); err != nil {
		t.Error(err)
	}
}

func TestHashConsistency(t *testing.T) {
	same := func(s string) bool { return String(s).Hash() == String(s).Hash() }
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
	// Equal values hash equal across construction paths.
	if Int(42).Hash() != Int(42).Hash() {
		t.Error("equal ints hash differently")
	}
	// Kind participates: Int(0) vs String("") must (overwhelmingly) differ.
	if Int(0).Hash() == String("").Hash() {
		t.Error("kind not mixed into hash")
	}
}

func TestHashSpread(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := int64(0); i < 1000; i++ {
		seen[Int(i).Hash()] = true
	}
	if len(seen) < 990 {
		t.Errorf("hash collisions too frequent: %d distinct of 1000", len(seen))
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"2.5", Float(2.5)},
		{"1e3", Float(1000)},
		{"2017-05-14T09:00:00Z", Time(time.Date(2017, 5, 14, 9, 0, 0, 0, time.UTC))},
		{"hello", String("hello")},
		{"", String("")},
		{"12abc", String("12abc")},
	}
	for _, c := range cases {
		if got := Parse(c.in); got != c.want {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestFloatSpecials(t *testing.T) {
	inf := Float(math.Inf(1))
	if inf.Compare(Float(1)) != 1 {
		t.Error("+Inf should order after finite floats")
	}
	if inf.Hash() == Float(math.Inf(-1)).Hash() {
		t.Error("+Inf and -Inf hash equal")
	}
}
