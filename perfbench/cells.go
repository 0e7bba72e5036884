package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"strconv"

	"pmutrust/internal/analysis"
	"pmutrust/internal/experiments"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/profile"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/stats"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// scale is the experiment scale every workload runs at: pmubench's
// -scale small.
var scale = experiments.SmallScale()

// kind is the experiment family a cell belongs to.
type kind uint8

const (
	accuracyCell kind = iota
	tenantCell
	muxCell
)

// cell is one grid point of a workload. The benchmark runs it by calling
// the layer packages directly, with the same seeds and options as
// internal/experiments, so its outputs equal the paper tables' cells.
type cell struct {
	kind   kind
	spec   workloads.Spec
	mach   machine.Machine
	method sampling.Method // classic for mux cells
	// key is the results-store method key: the method key, TenantKey or
	// MuxKey.
	key       string
	tenants   int
	timeslice uint64 // scheduler period (tenant cells) or rotation timeslice (mux cells)
	events    []pmu.Event
	policy    pmu.MuxPolicy
}

// workload is one benchmark workload: the programs its set-up builds,
// whether set-up collects their references, and its cells in canonical
// order.
type workload struct {
	name  string
	specs []workloads.Spec
	refs  bool
	cells []cell
}

// workloadNames lists the workloads: the two in BENCHMARK.json, in its
// order, then mux-counting, which is run by hand (see README.md).
var workloadNames = []string{"accuracy-matrix", "tenants-sched", "mux-counting"}

// newWorkload builds the named workload's cell grid.
func newWorkload(name string) (*workload, error) {
	switch name {
	case "accuracy-matrix":
		return accuracyMatrix(), nil
	case "tenants-sched":
		return tenantsSched(), nil
	case "mux-counting":
		return muxCounting(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// accuracyMatrix is the Table 1 + Table 2 grid: kernels and apps × the
// three machines × every Table 3 method.
func accuracyMatrix() *workload {
	w := &workload{name: "accuracy-matrix", refs: true,
		specs: append(workloads.Kernels(), workloads.Apps()...)}
	for _, spec := range w.specs {
		for _, mach := range machine.All() {
			for _, m := range sampling.Registry() {
				w.cells = append(w.cells, cell{kind: accuracyCell, spec: spec, mach: mach, method: m, key: m.Key})
			}
		}
	}
	return w
}

// tenantsSched is the tenant-count grid behind Table 10 (pmubench
// -experiment tenants): two kernels × three machines × one method per
// capture mechanism × 1/2/4/8 tenants at the default scheduler period.
func tenantsSched() *workload {
	w := &workload{name: "tenants-sched", refs: true, specs: specsByName("LatencyBiased", "G4Box")}
	ts := uint64(sched.DefaultPeriodCycles)
	for _, spec := range w.specs {
		for _, mach := range machine.All() {
			for _, key := range []string{"classic", "precise", "pdir+ipfix", "lbr"} {
				m := methodByKey(key)
				for _, n := range experiments.DefaultTenantCounts() {
					w.cells = append(w.cells, cell{kind: tenantCell, spec: spec, mach: mach, method: m,
						key: experiments.TenantKey(n, ts, m.Key), tenants: n, timeslice: ts})
				}
			}
		}
	}
	return w
}

// muxCounting is the mux-events, mux-timeslice and mux-policy grids in
// that order. A cell the three tables share (8 events, default
// timeslice, round-robin) is measured once.
func muxCounting() *workload {
	w := &workload{name: "mux-counting",
		specs: specsByName("LatencyBiased", "G4Box", "PhaseShift", "PhasedBurst")}
	menu := experiments.MuxEventMenu()
	type config struct {
		n      int
		ts     uint64
		policy pmu.MuxPolicy
	}
	var tables [][]config
	var events, slices []config
	for _, n := range []int{2, 4, 6, 8, 10} {
		events = append(events, config{n: n, ts: pmu.DefaultMuxTimeslice})
	}
	for _, ts := range []uint64{250, 1000, 4000, 16000} {
		slices = append(slices, config{n: 8, ts: ts})
	}
	policies := []config{{n: 8, ts: pmu.DefaultMuxTimeslice}, {n: 8, ts: pmu.DefaultMuxTimeslice, policy: pmu.MuxPriority}}
	tables = append(tables, events, slices, policies)

	classic := methodByKey("classic")
	seen := map[string]bool{}
	for _, table := range tables {
		for _, spec := range w.specs {
			for _, mach := range machine.All() {
				for _, cfg := range table {
					key := experiments.MuxKey(cfg.policy, cfg.n, cfg.ts)
					id := spec.Name + "/" + mach.Name + "/" + key
					if seen[id] {
						continue
					}
					seen[id] = true
					w.cells = append(w.cells, cell{kind: muxCell, spec: spec, mach: mach, method: classic,
						key: key, timeslice: cfg.ts, events: menu[:cfg.n], policy: cfg.policy})
				}
			}
		}
	}
	return w
}

func specsByName(names ...string) []workloads.Spec {
	var out []workloads.Spec
	for _, n := range names {
		s, err := workloads.ByName(n)
		if err != nil {
			panic(err) // the names are fixed above
		}
		out = append(out, s)
	}
	return out
}

func methodByKey(key string) sampling.Method {
	m, err := sampling.MethodByKey(key)
	if err != nil {
		panic(err) // the keys are fixed above
	}
	return m
}

// env is what set-up produces: every built program and, for workloads
// that measure accuracy, its exact reference profile.
type env struct {
	progs map[string]*program.Program
	refs  map[string]*ref.Profile
}

// setup builds the workload's programs and collects their references,
// one after the other, recording a span around each layer call.
func (w *workload) setup(sc scope) (*env, error) {
	e := &env{progs: map[string]*program.Program{}, refs: map[string]*ref.Profile{}}
	for _, spec := range w.specs {
		var p *program.Program
		sc.call("workloads.Build", func() { p = spec.Build(scale.Workload) })
		e.progs[spec.Name] = p
		if !w.refs {
			continue
		}
		var rp *ref.Profile
		var err error
		sc.call("ref.Collect", func() { rp, err = ref.Collect(p) })
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", spec.Name, err)
		}
		e.refs[spec.Name] = rp
	}
	return e, nil
}

// layerCounts are the exact per-layer work counts of one or more cells.
type layerCounts struct {
	collectCalls, collectInstrs uint64 // sampling.Collect
	schedInstrs                 uint64 // sched.Collect, all tenants
	samples                     uint64
	overflows, droppedPMIs      uint64
	muxRotations                uint64
	switches, drains, foreign   uint64
	puts                        uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.collectCalls += o.collectCalls
	c.collectInstrs += o.collectInstrs
	c.schedInstrs += o.schedInstrs
	c.samples += o.samples
	c.overflows += o.overflows
	c.droppedPMIs += o.droppedPMIs
	c.muxRotations += o.muxRotations
	c.switches += o.switches
	c.drains += o.drains
	c.foreign += o.foreign
	c.puts += o.puts
}

// runs records one collection's runs in the counts.
func (c *layerCounts) runs(rs []*sampling.Run) {
	for _, r := range rs {
		c.samples += uint64(len(r.Samples))
		c.overflows += r.Overflows
		c.droppedPMIs += r.DroppedPMIs
		c.muxRotations += r.MuxRotations
		if s := r.Sched; s != nil {
			c.switches += s.Switches
			c.drains += s.DrainedInFlight
			c.foreign += s.ForeignSamples
		}
	}
}

// outcome is one measured cell.
type outcome struct {
	// rec is the store record: the summary the paper tables render and
	// the resume pass must serve back unchanged.
	rec results.Record
	// counts are a mux cell's per-event exact, raw and scaled counts.
	counts []pmu.MuxCount
	// sched is a tenant cell's noise accounting (first repeat, tenant 0);
	// nil for single-tenant cells.
	sched  *sampling.SchedStats
	layers layerCounts
}

// identity is the store identity of cell c at base seed seed.
func (c *cell) identity(seed uint64) results.Identity {
	return results.Identity{
		Workload: c.spec.Name, Machine: c.mach.Name, Method: c.key,
		Scale: scale.Name, WorkloadScale: scale.Workload, PeriodBase: scale.PeriodBase,
		Seed: seed, Repeats: scale.Repeats,
	}
}

// measure runs cell c at base seed seed, feeding engine counters to
// sink, and appends the result to st. Each layer call gets a span under
// sc.
func (e *env) measure(c *cell, seed uint64, sink *telemetry.Sink, st results.Store, sc scope) (outcome, error) {
	id := c.identity(seed)
	o := outcome{rec: results.Record{Key: id.Key(), Identity: id}}
	var err error
	if c.kind == muxCell {
		err = e.measureMux(c, seed, sink, sc, &o)
	} else {
		err = e.measureAccuracy(c, seed, sink, sc, &o)
	}
	if err != nil {
		return o, err
	}
	sc.call("Store.Put", func() { err = st.Put(o.rec) })
	o.layers.puts++
	return o, err
}

// measureAccuracy mirrors experiments.Runner.Measure (accuracy cells) and
// MeasureTenants (tenant cells).
func (e *env) measureAccuracy(c *cell, seed uint64, sink *telemetry.Sink, sc scope, o *outcome) error {
	o.rec.Err = -1
	if _, ok := sampling.Resolve(c.method, c.mach); !ok {
		return nil
	}
	o.rec.Supported = true
	p, reference := e.progs[c.spec.Name], e.refs[c.spec.Name]
	var errs []float64
	var failures []error
	for rep := 0; rep < scale.Repeats; rep++ {
		opt := sampling.Options{
			PeriodBase: scale.PeriodBase,
			Seed:       stats.DeriveSeed(seed, c.spec.Name, c.mach.Name, c.method.Key, strconv.Itoa(rep)),
			Telemetry:  sink,
		}
		runs, err := e.collect(c, opt, sc, &o.layers)
		var ae float64
		if err == nil {
			ae, err = profileError(p, runs[0], reference, sc)
		}
		if err != nil {
			failures = append(failures, fmt.Errorf("repeat %d: %w", rep, err))
			continue
		}
		o.layers.runs(runs)
		if len(errs) == 0 {
			o.rec.Samples = len(runs[0].Samples)
			o.sched = runs[0].Sched
		}
		errs = append(errs, ae)
	}
	o.rec.PerRepeat = errs
	o.rec.Failed = len(failures) > 0
	if len(errs) > 0 {
		o.rec.Err = stats.Mean(errs)
	}
	return errors.Join(failures...)
}

// collect runs one repeat of an accuracy or tenant cell: tenant cells
// through the scheduler (which hands a single tenant to sampling.Collect
// itself), accuracy cells through sampling.Collect.
func (e *env) collect(c *cell, opt sampling.Options, sc scope, l *layerCounts) ([]*sampling.Run, error) {
	p := e.progs[c.spec.Name]
	if c.kind == tenantCell {
		progs := make([]*program.Program, c.tenants)
		for i := range progs {
			progs[i] = p
		}
		opt.SchedTimesliceCycles = c.timeslice
		var runs []*sampling.Run
		var err error
		sc.call("sched.Collect", func() { runs, err = sched.Collect(progs, c.mach, c.method, sched.Options{Options: opt}) })
		for _, r := range runs {
			l.schedInstrs += r.CPU.Instructions
		}
		return runs, err
	}
	var run *sampling.Run
	var err error
	sc.call("sampling.Collect", func() { run, err = sampling.Collect(p, c.mach, c.method, opt) })
	l.collectCalls++
	if err != nil {
		return nil, err
	}
	l.collectInstrs += run.CPU.Instructions
	return []*sampling.Run{run}, nil
}

// profileError builds the run's block profile and scores it against the
// reference.
func profileError(p *program.Program, run *sampling.Run, reference *ref.Profile, sc scope) (float64, error) {
	var bp *profile.BlockProfile
	var err error
	if run.Method.UseLBRStack {
		sc.call("lbr.BuildProfile", func() { bp, _, err = lbr.BuildProfile(p, run) })
	} else {
		sc.call("profile.FromSamples", func() { bp = profile.FromSamples(p, run) })
	}
	if err != nil {
		return 0, err
	}
	var ae float64
	sc.call("analysis.AccuracyError", func() { ae, err = analysis.AccuracyError(bp, reference) })
	return ae, err
}

// measureMux mirrors experiments.Runner.MeasureMux and the record
// measureMuxCell stores: Err is the mean relative counting error and
// Samples the rotation count.
func (e *env) measureMux(c *cell, seed uint64, sink *telemetry.Sink, sc scope, o *outcome) error {
	var run *sampling.Run
	var err error
	sc.call("sampling.Collect", func() {
		run, err = sampling.Collect(e.progs[c.spec.Name], c.mach, c.method, sampling.Options{
			PeriodBase:         scale.PeriodBase,
			Seed:               stats.DeriveSeed(seed, c.spec.Name, c.mach.Name, c.key, "0"),
			Events:             c.events,
			MuxTimesliceCycles: c.timeslice,
			MuxPolicy:          c.policy,
			Telemetry:          sink,
		})
	})
	o.layers.collectCalls++
	if err != nil {
		return err
	}
	o.layers.collectInstrs += run.CPU.Instructions
	o.layers.runs([]*sampling.Run{run})
	var sum float64
	for _, mc := range run.Counts {
		sum += mc.RelError()
	}
	o.counts = run.Counts
	o.rec.Err = sum / float64(len(run.Counts))
	o.rec.Samples = int(run.MuxRotations)
	o.rec.Supported = true
	return nil
}

// check returns why a measured outcome violates the model's invariants,
// or nil.
func (o *outcome) check(c *cell) error {
	r := &o.rec
	switch {
	case c.kind == muxCell:
		if len(o.counts) != len(c.events) {
			return fmt.Errorf("%d counts for %d events", len(o.counts), len(c.events))
		}
		for _, mc := range o.counts {
			if mc.RunningCycles == mc.EnabledCycles && mc.Raw != mc.Exact {
				return fmt.Errorf("%v held a counter throughout but counted %d of %d", mc.Event, mc.Raw, mc.Exact)
			}
		}
	case !r.Supported:
		if r.Err != -1 || r.Failed {
			return fmt.Errorf("unsupported cell reads err %v", r.Err)
		}
	case r.Failed || r.Err < 0 || len(r.PerRepeat) != scale.Repeats || r.Samples == 0:
		return fmt.Errorf("supported cell: err %v, %d repeats, %d samples, failed %v", r.Err, len(r.PerRepeat), r.Samples, r.Failed)
	case c.kind == tenantCell && (o.sched == nil) != (c.tenants == 1):
		return fmt.Errorf("%d tenants but sched stats %v", c.tenants, o.sched)
	case o.sched != nil && o.sched.Tenants != c.tenants:
		return fmt.Errorf("sched stats for %d tenants, want %d", o.sched.Tenants, c.tenants)
	}
	return nil
}

// sameRecord reports whether two store records carry the same
// measurement.
func sameRecord(a, b results.Record) bool {
	if a.Key != b.Key || a.Identity != b.Identity || math.Float64bits(a.Err) != math.Float64bits(b.Err) ||
		a.Samples != b.Samples || a.Supported != b.Supported || a.Failed != b.Failed || len(a.PerRepeat) != len(b.PerRepeat) {
		return false
	}
	for i := range a.PerRepeat {
		if math.Float64bits(a.PerRepeat[i]) != math.Float64bits(b.PerRepeat[i]) {
			return false
		}
	}
	return true
}

// digest hashes every simulated output of the cell: error bits,
// per-repeat errors, samples, supported/failed, mux exact/raw/scaled
// counts and the scheduler's noise accounting. The engine's work
// counters are deliberately left out: performance work may reduce them
// without changing a single output.
func (o *outcome) digest() [sha256.Size]byte {
	h := sha256.New()
	r := &o.rec
	h.Write([]byte(r.Key))
	u64(h, math.Float64bits(r.Err), uint64(len(r.PerRepeat)))
	for _, e := range r.PerRepeat {
		u64(h, math.Float64bits(e))
	}
	u64(h, uint64(r.Samples), b2u(r.Supported), b2u(r.Failed), uint64(len(o.counts)))
	for _, mc := range o.counts {
		u64(h, uint64(mc.Event), mc.Exact, mc.Raw, math.Float64bits(mc.Scaled))
	}
	if s := o.sched; s != nil {
		u64(h, uint64(s.Tenants), uint64(s.Tenant), s.Switches, s.DrainedInFlight,
			s.ForeignSamples, s.KernelLeakInstrs, s.KernelSamplesLost, s.Migrations)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// workloadDigest combines per-cell digests, in cell order, into the
// workload's output digest.
func workloadDigest(cells [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range cells {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func u64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
