package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
)

func TestSelfTimeOverlappingAndNested(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{ID: 0, Parent: -1, Name: "cell", Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10-50: 40 ms, counted once.
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(30), End: ms(50)},
		// A child nested in b's sibling c: only c is subtracted from the
		// cell, and the grandchild from c.
		{ID: 3, Parent: 0, Name: "c", Start: ms(60), End: ms(90)},
		{ID: 4, Parent: 3, Name: "d", Start: ms(65), End: ms(75)},
		// A child running past its parent's end is clipped.
		{ID: 5, Parent: 4, Name: "e", Start: ms(70), End: ms(80)},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"cell": ms(100 - 40 - 30),
		"a":    ms(30), "b": ms(20),
		"c": ms(30 - 10),
		"d": ms(10 - 5),
		"e": ms(10),
	}
	for name, w := range want {
		if got[name].self != w || got[name].calls != 1 {
			t.Errorf("%s: self %v over %d calls, want %v over 1", name, got[name].self, got[name].calls, w)
		}
	}
	if _, err := selfTimes([]Span{{Name: "open", Start: ms(5)}}); err == nil {
		t.Error("an unclosed span was accepted")
	}
}

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{189, 0.9, 18}, {100, 0.9, 10}, {96, 1 - 10.0/96, 10}, {20, 0.5, 10}, {12, 0.5, 6},
	} {
		q := tailQuantile(tc.n)
		if math.Abs(q-tc.q) > 1e-12 {
			t.Errorf("n=%d: quantile %v, want %v", tc.n, q, tc.q)
		}
		ds := make([]time.Duration, tc.n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		if beyond := tc.n - int(quantile(ds, q)); beyond != tc.beyond {
			t.Errorf("n=%d: %d samples beyond the tail quantile, want %d", tc.n, beyond, tc.beyond)
		}
	}
}

func TestWindowQuantile(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	// Ranks 46..55 around the median, 86..95 around p90.
	p50, tail, q := latencies(ds)
	if p50 != 50 || tail != 90 || q != 0.9 {
		t.Errorf("1..100: p50 %v, tail %v at q=%v; want 50, 90 at q=0.9", p50, tail, q)
	}
	if got := windowQuantile([]time.Duration{7}, 0.5); got != 7 {
		t.Errorf("one value: %v, want 7", got)
	}
	// Two clusters meeting at the median: the nearest rank is the lower
	// cluster's top, the window straddles both.
	for i := range ds {
		ds[i] = time.Duration(10 + 90*(i/50))
	}
	if got, nr := windowQuantile(ds, 0.5), quantile(ds, 0.5); got != 55 || nr != 10 {
		t.Errorf("two clusters: window %v, nearest rank %v; want 55, 10", got, nr)
	}
}

// TestPassOrder checks that a pass starts every cell once, in an order
// that is the same on every call and mixes the grid.
func TestPassOrder(t *testing.T) {
	for _, n := range []int{1, 96, 189} {
		order := passOrder(n)
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("n=%d: order %v is not a permutation", n, order)
			}
			seen[i] = true
		}
		if again := passOrder(n); !slices.Equal(order, again) {
			t.Errorf("n=%d: order differs between calls", n)
		}
		if n > 1 && slices.IsSorted(order) {
			t.Errorf("n=%d: order is the grid order", n)
		}
	}
}

// smallWorkload mixes a few cheap cells of every kind.
func smallWorkload() *workload {
	w := &workload{name: "small", refs: true, specs: specsByName("LatencyBiased")}
	pick := func(from *workload, keep func(c cell) bool) {
		for _, c := range from.cells {
			if c.spec.Name == "LatencyBiased" && c.mach.Name == "IvyBridge" && keep(c) {
				w.cells = append(w.cells, c)
			}
		}
	}
	pick(accuracyMatrix(), func(c cell) bool { return true })
	pick(tenantsSched(), func(c cell) bool { return c.method.Key == "precise" && c.tenants <= 2 })
	pick(muxCounting(), func(c cell) bool { return len(c.events) == 8 })
	return w
}

func TestDigestStableAcrossWorkersAndTracing(t *testing.T) {
	w := smallWorkload()
	var want string
	for _, workers := range []int{1, 2} {
		for _, traced := range []bool{false, true} {
			b := &bench{cfg: config{seed: 9, workers: workers}, w: w, dir: t.TempDir()}
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			e, err := w.setup(tr.root("setup", "setup"))
			if err != nil {
				t.Fatal(err)
			}
			pr, err := b.pass(e, "p", tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pr.failed != 0 {
				t.Fatalf("workers=%d traced=%v: %v", workers, traced, pr.failures)
			}
			if len(pr.cellTimes) != len(w.cells) {
				t.Fatalf("workers=%d traced=%v: %d cells run, want one pass of %d", workers, traced, len(pr.cellTimes), len(w.cells))
			}
			got := workloadDigest(pr.digests)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("workers=%d traced=%v: digest %s, want %s", workers, traced, got, want)
			}
		}
	}
}

// TestCellsMatchExperiments pins the benchmark's cells to the harness
// cells they mirror: same errors, samples and counts.
func TestCellsMatchExperiments(t *testing.T) {
	const seed = 5
	w := smallWorkload()
	e, err := w.setup(scope{})
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{seed: seed, workers: 2}, w: w, dir: t.TempDir()}
	pr, err := b.pass(e, "p", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(scale, seed)
	for i, c := range w.cells {
		got := pr.recs[i]
		var wantErr float64
		var wantSamples int
		switch c.kind {
		case accuracyCell:
			m, err := r.Measure(c.spec, c.mach, c.method)
			if err != nil {
				t.Fatal(err)
			}
			wantErr, wantSamples = m.Err, m.Samples
		case tenantCell:
			m, err := r.MeasureTenants(c.spec, c.mach, c.method, c.tenants, c.timeslice, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantErr, wantSamples = m.Err, m.Samples
		case muxCell:
			m, err := r.MeasureMux(c.spec, c.mach, c.events, c.timeslice, c.policy)
			if err != nil {
				t.Fatal(err)
			}
			wantErr, wantSamples = m.MeanErr, int(m.Rotations)
		}
		if got.Err != wantErr || got.Samples != wantSamples {
			t.Errorf("%s/%s/%s: err %v samples %d, harness %v and %d", c.spec.Name, c.mach.Name, c.key,
				got.Err, got.Samples, wantErr, wantSamples)
		}
	}
}

func TestWorkloadGrids(t *testing.T) {
	for name, want := range map[string]int{"accuracy-matrix": 189, "tenants-sched": 96, "mux-counting": 120} {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.cells) != want {
			t.Errorf("%s: %d cells, want %d", name, len(w.cells), want)
		}
		seen := map[string]bool{}
		for _, c := range w.cells {
			id := c.identity(1).Key()
			if seen[id] {
				t.Errorf("%s: cell %s/%s/%s twice", name, c.spec.Name, c.mach.Name, c.key)
			}
			seen[id] = true
		}
	}
	if len(machine.All()) != 3 {
		t.Fatal("the grids assume three machines")
	}
}
