package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the highest quantile reported for cell latencies: 0.9,
// or lower when fewer than ten samples would lie beyond p90. At fewer
// than 20 samples no quantile above the median qualifies and the median
// is returned.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return max(0.5, min(0.9, q))
}

// quantile returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least q·n values at or below it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[max(rank, 1)-1]
}

// quantileWindow is the half-width, in quantile units, of the ranks
// windowQuantile averages.
const quantileWindow = 0.05

// windowQuantile estimates the q-quantile of sorted values as the mean of
// the values ranked between q-quantileWindow and q+quantileWindow. Cell
// latencies are sparse around their quantiles (a workload mixes cells of
// very different sizes), so a single order statistic moves by a whole
// rank step when one cell's time jitters; the mean of its neighbours
// does not.
func windowQuantile(sorted []time.Duration, q float64) time.Duration {
	n := float64(len(sorted))
	lo := max(0, int(math.Floor((q-quantileWindow)*n+1e-9)))
	hi := min(len(sorted), int(math.Ceil((q+quantileWindow)*n-1e-9)))
	if hi <= lo {
		return quantile(sorted, q)
	}
	var sum time.Duration
	for _, d := range sorted[lo:hi] {
		sum += d
	}
	return sum / time.Duration(hi-lo)
}

// latencies returns the windowed median and tail quantile (see
// tailQuantile and windowQuantile) and the tail quantile it used.
func latencies(ds []time.Duration) (p50, tail time.Duration, q float64) {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q = tailQuantile(len(s))
	return windowQuantile(s, 0.5), windowQuantile(s, q), q
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
