// Command compare judges a change against its parent from two sets of
// perfbench result files, by the paired-run rule for noisy hosts: per workload
// and metric it reports each side's median and quartiles, the share of
// interleaved pairs each side won, and a verdict against the bounds in
// BENCHMARK.json. Exact counters are compared as counts.
//
//	go run ./compare -bench ../BENCHMARK.json -parent DIR -change DIR
//
// A result file is the full standard output of one perfbench run: its
// "# perfbench workload=… seed=…" header names the workload and seed,
// and its last line is the JSON result. Runs of the two sides pair up by
// workload and seed, in file-name order within a seed, so run the two
// commits alternately on the same seeds. The exit status is 1 when any
// end-to-end metric reads worse, or any run failed its output check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one parsed result file.
type run struct {
	workload string
	seed     string
	correct  bool
	metrics  map[string]float64
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	parent := flag.String("parent", "", "directory of the parent commit's result files")
	change := flag.String("change", "", "directory of the change's result files")
	flag.Parse()
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "compare: -parent and -change are required")
		os.Exit(2)
	}
	worse, err := compare(os.Stdout, *bench, *parent, *change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

// compare prints the report and returns whether anything regressed.
func compare(w io.Writer, benchPath, parentDir, changeDir string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}
	worse := false
	for _, side := range [][]run{parent, change} {
		for _, r := range side {
			if !r.correct {
				fmt.Fprintf(w, "run %s seed %s failed its output check\n", r.workload, r.seed)
				worse = true
			}
		}
	}
	for _, wl := range workloadsOf(parent, change) {
		fmt.Fprintf(w, "\n== %s\n%-28s %-9s %-30s %-30s %-9s %s\n", wl, "metric", "unit",
			"parent median [q1, q3]", "change median [q1, q3]", "won c/p", "verdict")
		for _, m := range spec.EndToEnd {
			ps, cs := pairs(parent, change, wl, m.Name)
			if len(ps) == 0 {
				continue
			}
			v := verdict(ps, cs, m.Better, m.Bound)
			worse = worse || v == "worse"
			printRow(w, m, ps, cs, v)
		}
		for _, m := range spec.PerLayer {
			ps, cs := pairs(parent, change, wl, m.Name)
			if len(ps) == 0 {
				continue
			}
			v := verdict(ps, cs, m.Better, math.Inf(1))
			if m.Unit == "count" {
				v = countVerdict(ps, cs, m.Better)
			}
			printRow(w, m, ps, cs, v)
		}
	}
	return worse, nil
}

func printRow(w io.Writer, m metricSpec, ps, cs []float64, v string) {
	pw, cw := wins(ps, cs, m.Better)
	fmt.Fprintf(w, "%-28s %-9s %-30s %-30s %-9s %s\n", m.Name, m.Unit,
		summary(ps), summary(cs), fmt.Sprintf("%d/%d", cw, pw), v)
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q[0], q[2])
}

// loadRuns parses every regular file in dir as one result file.
func loadRuns(dir string) ([]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return runs, nil
}

func parseRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	var r run
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "# perfbench "); ok {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "seed":
					r.seed = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.workload == "" {
		return run{}, fmt.Errorf("%s: no \"# perfbench workload=\" header", path)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return run{}, fmt.Errorf("%s: last line: %w", path, err)
	}
	r.correct = res.Correct
	r.metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

func workloadsOf(sides ...[]run) []string {
	seen := map[string]bool{}
	var out []string
	for _, side := range sides {
		for _, r := range side {
			if !seen[r.workload] {
				seen[r.workload] = true
				out = append(out, r.workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

// pairs returns the metric's values on runs of the workload that both
// sides made at the same seed, paired in order.
func pairs(parent, change []run, workload, metric string) (ps, cs []float64) {
	bySeed := func(side []run) map[string][]float64 {
		out := map[string][]float64{}
		for _, r := range side {
			if v, ok := r.metrics[metric]; ok && r.workload == workload {
				out[r.seed] = append(out[r.seed], v)
			}
		}
		return out
	}
	p, c := bySeed(parent), bySeed(change)
	var seeds []string
	for s := range p {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	for _, s := range seeds {
		for i := 0; i < len(p[s]) && i < len(c[s]); i++ {
			ps = append(ps, p[s][i])
			cs = append(cs, c[s][i])
		}
	}
	return ps, cs
}

// better reports whether a reads better than b.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs each side won; ties count for neither.
func wins(ps, cs []float64, dir string) (parent, change int) {
	for i := range ps {
		switch {
		case better(cs[i], ps[i], dir):
			change++
		case better(ps[i], cs[i], dir):
			parent++
		}
	}
	return parent, change
}

// verdict applies the rule to one metric's paired runs:
//   - improved: the change won at least nine tenths of all pairs, and the
//     medians differ, in its favour, by more than the parent's quartile
//     spread;
//   - unresolved: either side's quartile spread, as a share of its
//     median, is wider than the bound, and not every change run reads
//     better than every parent run;
//   - no worse: the change's median is worse than the parent's by at most
//     the bound;
//   - worse: otherwise.
//
// An infinite bound (per-layer metrics have none) yields improved or
// "-".
func verdict(ps, cs []float64, dir string, bound float64) string {
	pm, cm := median(ps), median(cs)
	_, cw := wins(ps, cs, dir)
	pq := quartiles(ps)
	if float64(cw) >= 0.9*float64(len(ps)) && better(cm, pm, dir) && math.Abs(cm-pm) > pq[2]-pq[0] {
		return "improved"
	}
	if math.IsInf(bound, 1) {
		return "-"
	}
	if spread(ps) > bound || spread(cs) > bound {
		if allBetter(cs, ps, dir) {
			return "no worse"
		}
		return "unresolved"
	}
	worsening := (cm - pm) / math.Abs(pm)
	if dir == "higher" {
		worsening = -worsening
	}
	if worsening <= bound {
		return "no worse"
	}
	return "worse"
}

// countVerdict compares an exact counter seed by seed: equal, or fewer or
// more by the summed difference, with "(better)" or "(worse)" from the
// metric's direction.
func countVerdict(ps, cs []float64, dir string) string {
	var dp, dc float64
	for i := range ps {
		dp += ps[i]
		dc += cs[i]
	}
	switch {
	case dc == dp:
		return "equal"
	case better(dc, dp, dir):
		return fmt.Sprintf("%+.0f (better)", dc-dp)
	default:
		return fmt.Sprintf("%+.0f (worse)", dc-dp)
	}
}

func allBetter(cs, ps []float64, dir string) bool {
	for _, c := range cs {
		for _, p := range ps {
			if !better(c, p, dir) {
				return false
			}
		}
	}
	return true
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(median(xs))
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method; a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func sorted(xs []float64) []float64 {
	if len(xs) == 0 {
		panic("compare: no values") // callers skip metrics without pairs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
