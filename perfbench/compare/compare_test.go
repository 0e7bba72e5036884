package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1, 2], n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	seq := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i)
		}
		return xs
	}
	parent := seq(100, 1) // median 104.5, spread about 5 %
	for _, tc := range []struct {
		name   string
		change []float64
		dir    string
		bound  float64
		want   string
	}{
		{"clearly faster", seq(80, 1), "lower", 0.1, "improved"},
		{"same", seq(100, 1), "lower", 0.1, "no worse"},
		{"slightly slower", seq(105, 1), "lower", 0.1, "no worse"},
		{"much slower", seq(130, 1), "lower", 0.1, "worse"},
		{"higher is better", seq(130, 1), "higher", 0.1, "improved"},
		{"lower throughput", seq(80, 1), "higher", 0.1, "worse"},
		{"spread wider than bound", seq(60, 10), "lower", 0.1, "unresolved"},
		{"spread wider but every run better", []float64{10, 20, 99.5, 99.5, 99.6, 99.6, 99.7, 99.8, 99.9, 99.9}, "lower", 0.1, "no worse"},
		{"wins too few pairs", append(seq(80, 1)[:8], 200, 200), "lower", 0.5, "no worse"},
		{"per-layer metric", seq(100, 1), "lower", math.Inf(1), "-"},
	} {
		if got := verdict(parent, tc.change, tc.dir, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCountVerdict(t *testing.T) {
	p := []float64{10, 20}
	for _, tc := range []struct {
		c    []float64
		want string
	}{
		{[]float64{10, 20}, "equal"},
		{[]float64{9, 20}, "-1 (better)"},
		{[]float64{10, 25}, "+5 (worse)"},
	} {
		if got := countVerdict(p, tc.c, "lower"); got != tc.want {
			t.Errorf("countVerdict(%v) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, data string) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(bench, `{"end_to_end": [{"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
		"per_layer": [{"name": "cpu.strides", "unit": "count", "better": "lower"}]}`)
	result := func(seed string, rate, strides float64) string {
		return "# perfbench workload=w seed=" + seed + " trace=0\n" +
			`{"correct": true, "attempted": 1, "failed": 0, "metrics": {"cells_per_s": {"value": ` +
			ftoa(rate) + `, "unit": "1/s"}, "cpu.strides": {"value": ` + ftoa(strides) + `, "unit": "count"}}}` + "\n"
	}
	for i, seed := range []string{"1", "2", "3", "4"} {
		write(filepath.Join(dir, "parent", seed), result(seed, 10+float64(i)*0.1, 100))
		write(filepath.Join(dir, "change", seed), result(seed, 5+float64(i)*0.1, 90))
	}
	var out strings.Builder
	worse, err := compare(&out, bench, filepath.Join(dir, "parent"), filepath.Join(dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "-40 (better)") {
		t.Errorf("worse=%v, report:\n%s", worse, out.String())
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
