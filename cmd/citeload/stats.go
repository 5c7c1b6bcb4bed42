package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// samples: the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := len(sorted) - beyond(len(sorted), q) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// beyond counts the samples above the nearest-rank q-quantile of n (the
// epsilon keeps 0.95·200 from rounding up past 190).
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// tailLadder is the set of quantiles a latency tail may be reported at.
var tailLadder = []struct {
	q    float64
	name string
}{{0.5, "p50"}, {0.9, "p90"}, {0.95, "p95"}, {0.99, "p99"}, {0.999, "p99.9"}}

// tailQuantile returns the highest ladder quantile that has at least ten
// samples beyond it among n samples, and its name; q is 0 when even the
// median has fewer.
func tailQuantile(n int) (q float64, name string) {
	for _, t := range tailLadder {
		if beyond(n, t.q) >= 10 {
			q, name = t.q, t.name
		}
	}
	return q, name
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes the cut
// points (the default exclusive method, which extrapolates for fewer
// than three samples).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		d := i*m - j*n
		return (s[j-1]*float64(n-d) + s[j]*float64(d)) / float64(n)
	}
	return cut(1), cut(2), cut(3)
}

// exposition is a parsed Prometheus text exposition: each sample keyed
// by its series, the metric name followed by its labels exactly as
// rendered (for example `citeserved_requests_total{endpoint="cite"}`).
type exposition map[string]float64

// parseExposition parses the text format served on /metrics. Comment
// lines are skipped; a malformed sample line is an error.
func parseExposition(r io.Reader) (exposition, error) {
	out := make(exposition)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		series, val := line[:cut], line[cut+1:]
		if i := strings.IndexByte(series, '{'); i >= 0 && !strings.HasSuffix(series, "}") {
			return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", series, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
