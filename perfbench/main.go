// Command perfbench is the end-to-end benchmark of the simulator: it
// drives the real experiment cells of one workload through the layer
// packages on a closed-loop pool of workers, checks every output, and
// prints its metrics as one JSON line. See README.md.
//
//	perfbench --workload accuracy-matrix|tenants-sched|mux-counting
//	          [--seed 42] [--seconds 45] [--trace 0|1]
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"pmutrust/internal/cpu"
	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
)

// defaultSeed matches pmubench's default -seed; baseline.json holds the
// output digests and exact counts at this seed.
const defaultSeed = 42

//go:embed baseline.json
var baselineJSON []byte

// baseline is the committed record of each workload at defaultSeed.
type baseline struct {
	Seed      uint64                   `json:"seed"`
	Workloads map[string]baselineEntry `json:"workloads"`
}

type baselineEntry struct {
	Cells    int               `json:"cells"`
	Digest   string            `json:"digest"`
	Counters map[string]uint64 `json:"counters"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload       string
	seed           uint64
	seconds        int
	trace          bool
	workers        int
	workdir        string
	updateBaseline string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "base seed every cell's seeds derive from")
	fs.IntVar(&cfg.seconds, "seconds", 45, "untraced mode: how long the timed phase keeps starting cells (at least one full pass runs)")
	fs.IntVar(&trace, "trace", 0, "1 runs one untraced and one traced pass and reports the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's results stores and span file")
	fs.StringVar(&cfg.updateBaseline, "update-baseline", "", "traced mode: write this workload's digest and exact counts into the given baseline file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --seconds >= 1 and no positional arguments")
		return 2
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	w, err := newWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		fmt.Fprintln(stderr, "perfbench: embedded baseline:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, w: w, dir: dir}
	if want, ok := base.Workloads[w.name]; ok && cfg.seed == base.Seed {
		b.wantDigest = want.Digest
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d workers=%d cells=%d\n",
		w.name, cfg.seed, trace, cfg.workers, len(w.cells))
	var res *result
	if cfg.trace {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	if cfg.updateBaseline != "" {
		if err := b.writeBaseline(res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// bench runs one workload.
type bench struct {
	cfg config
	w   *workload
	dir string
	// wantDigest is the committed output digest ("" at a seed without
	// one).
	wantDigest string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run reports.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	notes             []string
	digest            string
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, min(r.failed, r.attempted), r.metrics}
}

// passResult is what one closed-loop pass produced.
type passResult struct {
	wall      time.Duration
	cellTimes []time.Duration // every completed cell, in start order
	busy      time.Duration   // summed cell time
	failed    int
	failures  []string
	// digests and recs hold the first pass over the grid, in cell order.
	digests [][sha256.Size]byte
	recs    []results.Record
	layers  layerCounts
	sink    *telemetry.Sink
	store   *results.FileStore
}

// done is one finished cell.
type done struct {
	seq    int // start order
	cell   int // index in the grid
	dur    time.Duration
	digest [sha256.Size]byte
	rec    results.Record
	err    error
}

// pass runs the workload's cells on the closed-loop pool: each worker
// starts its next cell only when its previous one has finished. Cells
// are started in passOrder, cycling through the grid: one whole pass,
// then until budget has elapsed (budget 0 runs exactly one pass). The
// last pass is usually cut short; since passOrder mixes the grid, the
// cells it reaches are a sample of the whole grid, not of one corner.
// Every cell's outputs are checked against the model's invariants and
// every repeat of a cell against its first run.
func (b *bench) pass(e *env, name string, tr *tracer, budget time.Duration) (*passResult, error) {
	st, err := results.Create(filepath.Join(b.dir, name+".jsonl"))
	if err != nil {
		return nil, err
	}
	pr := &passResult{sink: &telemetry.Sink{}, store: st}
	cells := b.w.cells
	n := len(cells)
	order := passOrder(n)
	var mu sync.Mutex // guards next, stopped, all and pr.layers
	next, stopped := 0, false
	var all []done
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	// claim hands out the next run's sequence number, or false once the
	// first pass has been handed out and the deadline has passed.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n && !time.Now().Before(deadline) {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for range b.cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq, ok := claim()
				if !ok {
					return
				}
				i := order[seq%n]
				c := &cells[i]
				sc := tr.root(fmt.Sprintf("cell-%d", i), "cell")
				t0 := time.Now()
				o, err := e.measure(c, b.cfg.seed, pr.sink, st, sc)
				dur := time.Since(t0)
				sc.end()
				if err == nil {
					err = o.check(c)
				}
				d := done{seq: seq, cell: i, dur: dur, digest: o.digest(), rec: o.rec, err: err}
				mu.Lock()
				all = append(all, d)
				pr.layers.add(o.layers)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pr.wall = time.Since(start)
	if err := st.Close(); err != nil {
		return nil, err
	}

	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	pr.digests = make([][sha256.Size]byte, n)
	pr.recs = make([]results.Record, n)
	for _, d := range all {
		c := &cells[d.cell]
		pr.cellTimes = append(pr.cellTimes, d.dur)
		pr.busy += d.dur
		if d.seq < n {
			pr.digests[d.cell], pr.recs[d.cell] = d.digest, d.rec
		} else if d.err == nil && d.digest != pr.digests[d.cell] {
			d.err = errors.New("outputs differ from the cell's first run")
		}
		if d.err != nil {
			pr.failed++
			pr.failures = append(pr.failures, fmt.Sprintf("%s %s/%s/%s: %v", name, c.spec.Name, c.mach.Name, c.key, d.err))
		}
	}
	return pr, nil
}

// passOrder is the order a pass starts the grid's n cells in: a fixed
// shuffle, the same in every run and at every seed.
func passOrder(n int) []int {
	return rand.New(rand.NewPCG(1, 2)).Perm(n)
}

// checkDigest compares a pass's output digest with the committed one.
func (b *bench) checkDigest(r *result, pr *passResult) {
	r.digest = workloadDigest(pr.digests)
	r.notes = append(r.notes, "digest "+r.digest)
	if b.wantDigest != "" && r.digest != b.wantDigest {
		// The digest cannot say which cells changed, so all count.
		r.failed += len(pr.digests)
		r.fail("output digest %s differs from the committed %s at seed %d", r.digest, b.wantDigest, b.cfg.seed)
	}
}

func (r *result) addPass(pr *passResult) {
	r.attempted += len(pr.cellTimes)
	r.failed += pr.failed
	for _, f := range pr.failures {
		r.fail("%s", f)
	}
}

// Set-up is repeated at least setupMinReps times and until setupMinTime
// has been spent in it (at most setupMaxReps times); setup_s is the
// median.
const (
	setupMinReps = 5
	setupMinTime = 5 * time.Second
	setupMaxReps = 400
)

// untraced is the end-to-end run: set-up repeated, then the timed
// closed-loop phase.
func (b *bench) untraced() (*result, error) {
	r := &result{metrics: map[string]metric{}}
	var setups []time.Duration
	var e *env
	for total := time.Duration(0); len(setups) < setupMinReps || total < setupMinTime && len(setups) < setupMaxReps; {
		e = nil // every repetition starts from the same heap
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = b.w.setup(scope{}); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		setups = append(setups, d)
		total += d
	}
	runtime.GC()

	cpu0 := cpuTime()
	pr, err := b.pass(e, "timed", nil, time.Duration(b.cfg.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	cpuUsed := cpuTime() - cpu0
	r.addPass(pr)
	b.checkDigest(r, pr)

	cells := float64(len(pr.cellTimes))
	snap := pr.sink.Snapshot("")
	p50, tail, q := latencies(pr.cellTimes)
	setup := median(setups)
	rate := cells / pr.wall.Seconds()
	mips := float64(snap.Engine.StrideInstrs+snap.Engine.EventInstrs) / pr.wall.Seconds() / 1e6
	cpuPerCell := ms(cpuUsed) / cells
	r.set("setup_s", setup.Seconds(), "s")
	r.set("cells_per_s", rate, "1/s")
	r.set("sim_mips", mips, "Minstr/s")
	r.set("cell_p50_ms", ms(p50), "ms")
	r.set("cell_p90_ms", ms(tail), "ms")
	r.set("cpu_ms_per_cell", cpuPerCell, "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.notes = append(r.notes,
		fmt.Sprintf("setup repeated %d times: min %.4f s, median %.4f s, max %.4f s",
			len(setups), slices.Min(setups).Seconds(), setup.Seconds(), slices.Max(setups).Seconds()),
		fmt.Sprintf("timed phase %.3f s, %d cells (%.2f passes)", pr.wall.Seconds(), len(pr.cellTimes), cells/float64(len(b.w.cells))),
		fmt.Sprintf("cell_p90_ms is the p%.1f of %d cells", 100*q, len(pr.cellTimes)))
	return r, nil
}

// traced is the per-layer run: a traced set-up, one untraced and one
// traced pass over the same cells, a resume pass, report rendering and
// the no-monitor engine probe.
func (b *bench) traced() (*result, error) {
	r := &result{metrics: map[string]metric{}}
	tr := newTracer()
	sc := tr.root("setup", "setup")
	e, err := b.w.setup(sc)
	sc.end()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	plain, err := b.pass(e, "untraced", nil, 0)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	traced, err := b.pass(e, "traced", tr, 0)
	if err != nil {
		return nil, err
	}
	r.addPass(plain)
	r.addPass(traced)
	b.checkDigest(r, plain)
	for i, c := range b.w.cells {
		if traced.digests[i] != plain.digests[i] {
			r.failed++
			r.fail("%s/%s/%s: traced pass outputs differ from the untraced pass", c.spec.Name, c.mach.Name, c.key)
		}
	}
	counts, tracedCounts := exactCounts(plain), exactCounts(traced)
	for k, v := range counts {
		if tracedCounts[k] != v {
			// A sum over the pass cannot say which cells changed, so all
			// count.
			r.failed += len(b.w.cells)
			r.fail("exact counter %s: untraced %d, traced %d", k, v, tracedCounts[k])
		}
	}

	served, err := b.resume(tr, traced)
	if err != nil {
		return nil, err
	}
	if err := b.render(tr, traced.store.Path()); err != nil {
		return nil, err
	}
	nopNs := b.nopProbe(e)
	spanPath := filepath.Join(b.cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.cfg.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, "spans written to "+spanPath)

	spans := tr.recorded()
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	for name, v := range counts {
		r.set(name, float64(v), "count")
	}
	snap := plain.sink.Snapshot("")
	instrs := float64(snap.Engine.StrideInstrs + snap.Engine.EventInstrs)
	r.set("cpu.event_frac", ratio(float64(snap.Engine.EventInstrs), instrs), "ratio")
	r.set("cpu.instrs_per_stride", ratio(float64(snap.Engine.StrideInstrs), float64(snap.Engine.Strides)), "instr")
	r.set("cpu.nop_ns_per_instr", nopNs, "ns/instr")
	samplingNs := ratio(float64(self["sampling.Collect"].self), float64(traced.layers.collectInstrs))
	r.set("sampling.ns_per_instr", samplingNs, "ns/instr")
	monitorNs := 0.0
	if plain.layers.collectCalls > 0 {
		monitorNs = samplingNs - nopNs
	}
	r.set("pmu.monitor_ns_per_instr", monitorNs, "ns/instr")
	r.set("sched.ns_per_instr", ratio(float64(self["sched.Collect"].self), float64(traced.layers.schedInstrs)), "ns/instr")

	r.set("ref.collect_calls", float64(self["ref.Collect"].calls), "count")
	for metricName, span := range map[string]string{
		"workloads.build_ms":      "workloads.Build",
		"ref.collect_ms":          "ref.Collect",
		"sampling.collect_ms":     "sampling.Collect",
		"sched.collect_ms":        "sched.Collect",
		"profile.from_samples_ms": "profile.FromSamples",
		"lbr.build_profile_ms":    "lbr.BuildProfile",
		"analysis.accuracy_ms":    "analysis.AccuracyError",
		"results.put_ms":          "Store.Put",
	} {
		r.set(metricName, ms(self[span].self), "ms")
	}
	// Resume and render spans cover their whole pass, children included.
	r.set("results.resume_ms", ms(self["resume"].self+self["Store.Get"].self), "ms")
	r.set("report.render_ms", ms(self["report"].self+self["report.Matrix"].self+
		self["report.MethodRanking"].self+self["report.Factors"].self), "ms")

	if fi, err := os.Stat(traced.store.Path()); err == nil {
		r.set("results.bytes_written", float64(fi.Size()), "B")
	} else {
		return nil, err
	}
	r.set("results.served_ratio", ratio(float64(served), float64(len(b.w.cells))), "ratio")
	if served != len(b.w.cells) {
		r.failed += len(b.w.cells) - served
		r.fail("resume served %d of %d cells unchanged", served, len(b.w.cells))
	}
	r.set("experiments.pool_idle_frac", 1-float64(plain.busy)/(float64(b.cfg.workers)*float64(plain.wall)), "ratio")
	r.set("experiments.cell_max_ms", ms(maxDur(plain.cellTimes)), "ms")
	r.set("trace.overhead_frac", float64(traced.wall-plain.wall)/float64(plain.wall), "ratio")
	r.set("fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	r.notes = append(r.notes, fmt.Sprintf("untraced pass %.3f s, traced pass %.3f s", plain.wall.Seconds(), traced.wall.Seconds()))
	return r, nil
}

// exactCounts are a pass's deterministic work counts: the engine
// counters from the telemetry sink and the per-layer counts. They repeat
// exactly at a given seed.
func exactCounts(pr *passResult) map[string]uint64 {
	snap := pr.sink.Snapshot("")
	l := pr.layers
	out := map[string]uint64{
		"cpu.strides":            snap.Engine.Strides,
		"cpu.stride_instrs":      snap.Engine.StrideInstrs,
		"cpu.event_instrs":       snap.Engine.EventInstrs,
		"cpu.fused_pairs":        snap.Engine.FusedPairs,
		"pmu.overflows":          l.overflows,
		"pmu.dropped_pmis":       l.droppedPMIs,
		"pmu.mux_rotations":      l.muxRotations,
		"sampling.collect_calls": l.collectCalls,
		"sampling.samples":       l.samples,
		"sched.switches":         l.switches,
		"sched.drains":           l.drains,
		"sched.foreign_samples":  l.foreign,
		"results.put_calls":      l.puts,
	}
	for k, v := range snap.Engine.Fallbacks {
		out["cpu.fallback."+k] = v
	}
	for _, v := range []string{"nop", "lean", "full"} {
		out["cpu.runs."+v] = snap.Engine.Runs[v]
	}
	return out
}

// resume re-opens the traced pass's store the way a resumed sweep does
// and serves every cell from it, counting the records that come back
// unchanged.
func (b *bench) resume(tr *tracer, pr *passResult) (int, error) {
	sc := tr.root("resume", "resume")
	defer sc.end()
	st, err := results.Load(pr.store.Path())
	if err != nil {
		return 0, err
	}
	served := 0
	for i := range b.w.cells {
		var rec results.Record
		var ok bool
		sc.call("Store.Get", func() { rec, ok = st.Get(pr.recs[i].Key) })
		if ok && sameRecord(rec, pr.recs[i]) {
			served++
		}
	}
	return served, nil
}

// render regenerates the workload's tables from the stored records, the
// way pmureport does.
func (b *bench) render(tr *tracer, path string) error {
	sc := tr.root("report", "report")
	defer sc.end()
	st, err := results.Load(path)
	if err != nil {
		return err
	}
	recs := st.Records()
	var wlo, mco, mto []string
	for _, s := range b.w.specs {
		wlo = append(wlo, s.Name)
	}
	for _, m := range machine.All() {
		mco = append(mco, m.Name)
	}
	if b.w.cells[0].kind == accuracyCell {
		for _, m := range sampling.Registry() {
			mto = append(mto, m.Key)
		}
	}
	var tables []*report.Table
	sc.call("report.Matrix", func() { tables = append(tables, report.Matrix(b.w.name, recs, wlo, mco, mto)) })
	if mto != nil {
		sc.call("report.MethodRanking", func() { tables = append(tables, report.MethodRanking("ranking", recs, mco, mto)) })
		sc.call("report.Factors", func() { tables = append(tables, report.Factors("factors", "classic", recs, mto)) })
	}
	for _, t := range tables {
		if len(t.String()) == 0 {
			return fmt.Errorf("empty %s table", t.Title)
		}
	}
	return nil
}

// nopProbe times cpu.RunFast with the no-op monitor once per distinct
// program and machine and returns nanoseconds per instruction: the
// engine's cost with no PMU attached.
func (b *bench) nopProbe(e *env) float64 {
	runtime.GC()
	var elapsed time.Duration
	var instrs uint64
	for _, s := range b.w.specs {
		for _, m := range machine.All() {
			t0 := time.Now()
			res, err := cpu.RunFast(e.progs[s.Name], m.CPU, cpu.NopMonitor{}, 0)
			elapsed += time.Since(t0)
			if err == nil {
				instrs += res.Instructions
			}
		}
	}
	return ratio(float64(elapsed), float64(instrs))
}

// writeBaseline records this run's digest and exact counts as the
// workload's entry in the baseline file.
func (b *bench) writeBaseline(r *result) error {
	if !b.cfg.trace || b.cfg.seed != defaultSeed || len(r.failures) > 0 {
		return errors.New("-update-baseline needs a clean --trace 1 run at the default seed")
	}
	base := baseline{Seed: defaultSeed, Workloads: map[string]baselineEntry{}}
	if data, err := os.ReadFile(b.cfg.updateBaseline); err == nil {
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %w", b.cfg.updateBaseline, err)
		}
	}
	entry := baselineEntry{Cells: len(b.w.cells), Digest: r.digest, Counters: map[string]uint64{}}
	for k, m := range r.metrics {
		if m.Unit == "count" && m.Value == float64(uint64(m.Value)) {
			entry.Counters[k] = uint64(m.Value)
		}
	}
	base.Workloads[b.w.name] = entry
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.cfg.updateBaseline, append(data, '\n'), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
