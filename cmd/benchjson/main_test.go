package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// benchOut renders one go test -bench line per value of b's metric, each
// named to match b.Bench and run b.Iterations times (once when unset).
func benchOut(b Bar, vals ...float64) string {
	iters := max(b.Iterations, 1)
	var sb strings.Builder
	for i, v := range vals {
		fmt.Fprintf(&sb, "%s#%02d-2 \t %d\t 1000 ns/op\t %s %s\n", b.Bench, i, iters, num(v), b.Unit)
	}
	return sb.String()
}

func holds(t *testing.T, b Bar, out string) bool {
	t.Helper()
	res, err := read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return check(io.Discard, []Bar{b}, res.Benchmarks)
}

// TestLedgerBarsSeparateNowFromFail: every bar of the committed ledger
// holds at its recorded samples, and fails at its failing value and
// without its samples, so a bar that no longer separates the two fails
// the build.
func TestLedgerBarsSeparateNowFromFail(t *testing.T) {
	bars, err := loadBars("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) == 0 {
		t.Fatal("the ledger has no bars")
	}
	for _, b := range bars {
		t.Run(b.Bench+" "+b.Unit+" "+b.Cmp+" "+num(b.Bar), func(t *testing.T) {
			if len(b.Now) < b.Samples {
				t.Fatalf("now holds %d samples, the bar needs %d", len(b.Now), b.Samples)
			}
			if !holds(t, b, benchOut(b, b.Now...)) {
				t.Errorf("fails at now %v", b.Now)
			}
			fail := make([]float64, len(b.Now))
			for i := range fail {
				fail[i] = b.Fail
			}
			if holds(t, b, benchOut(b, fail...)) {
				t.Errorf("holds at fail %v", b.Fail)
			}
			if holds(t, b, benchOut(b, b.Now[:b.Samples-1]...)) {
				t.Errorf("holds with %d of its %d samples", b.Samples-1, b.Samples)
			}
		})
	}
}

// TestCheckSamples: a bar counts only the lines that report its unit and,
// when it says so, ran its iteration count; it compares every sample, or
// with min their minimum.
func TestCheckSamples(t *testing.T) {
	every := Bar{Bench: "BenchmarkX/", Unit: "allocs/op", Cmp: "<", Bar: 10, Samples: 2}
	for _, c := range []struct {
		b    Bar
		out  string
		want bool
	}{
		{every, benchOut(every, 9, 9), true},
		{every, benchOut(every, 9, 10), false},
		{every, benchOut(every, 9) + "BenchmarkX/b-2 1 1000 ns/op\n", false},
		{every, benchOut(every, 9) + "BenchmarkY/b-2 1 1000 ns/op 9 allocs/op\n", false},
		{Bar{Bench: "BenchmarkX", Unit: "n", Cmp: "==", Samples: 1}, "BenchmarkX-2 1 1 ns/op 0 n\n", true},
		{Bar{Bench: "BenchmarkX", Unit: "n", Cmp: "<=", Bar: 1, Samples: 1}, "BenchmarkX-2 1 1 ns/op 1 n\n", true},
	} {
		if got := holds(t, c.b, c.out); got != c.want {
			t.Errorf("%+v over\n%s: holds %v, want %v", c.b, c.out, got, c.want)
		}
	}

	trace := Bar{Bench: "BenchmarkT", Unit: "r", Cmp: "<", Bar: 1.05, Samples: 3, Iterations: 8000, Min: true}
	one := "BenchmarkT-2 1 1000 ns/op 0.6 r\n"
	for _, c := range []struct {
		out  string
		want bool
	}{
		{benchOut(trace, 1.06, 1.06, 1.07), false},
		{benchOut(trace, 1.06, 1.04, 1.07), true},
		{one + benchOut(trace, 1.06, 1.06, 1.07), false},
		{one + benchOut(trace, 1.04, 1.04), false},
	} {
		if got := holds(t, trace, c.out); got != c.want {
			t.Errorf("trace bar over\n%s: holds %v, want %v", c.out, got, c.want)
		}
	}
}
