package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/pool"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/workloads"
)

// Grid enumerates a (workload × machine × method × regime) experiment
// matrix — the shape of the paper's Tables 1 and 2, of the mux and
// tenant tables, and of any full-factorial method comparison.
type Grid struct {
	Workloads []workloads.Spec
	Machines  []machine.Machine
	Methods   []sampling.Method
	// Regimes is the innermost axis; nil means the single zero regime,
	// i.e. plain accuracy cells.
	Regimes []Regime
}

// CellKind classifies a cell by its measurement regime — and the store
// method key it is stored under (see Cell.Key and KeyKind).
type CellKind int

const (
	// AccuracyCell is a plain (workload, machine, method) accuracy cell.
	AccuracyCell CellKind = iota
	// MuxCell measures the multiplexed counting error of an event list
	// next to the cell's (classic) sampler.
	MuxCell
	// TenantCell measures the method's accuracy for one of N tenants
	// timesharing one simulated core.
	TenantCell
)

// Regime is a cell's measurement regime. The zero value is a plain
// accuracy cell.
type Regime struct {
	Kind CellKind
	// Events and Policy are a mux cell's counting-event request list and
	// rotation policy.
	Events []pmu.Event
	Policy pmu.MuxPolicy
	// Tenants is a tenant cell's tenant count; SwitchCost overrides the
	// machine's context-switch cost in cycles (0 = per-machine default).
	Tenants    int
	SwitchCost uint64
	// Timeslice is the mux rotation timeslice or the scheduler period in
	// simulated cycles; 0 selects the regime's default.
	Timeslice uint64
}

// Cell is one grid point.
type Cell struct {
	Workload workloads.Spec
	Machine  machine.Machine
	Method   sampling.Method
	Regime   Regime
}

// timeslice resolves the regime's timeslice default.
func (c Cell) timeslice() uint64 {
	switch {
	case c.Regime.Timeslice != 0:
		return c.Regime.Timeslice
	case c.Regime.Kind == MuxCell:
		return pmu.DefaultMuxTimeslice
	case c.Regime.Kind == TenantCell:
		return sched.DefaultPeriodCycles
	}
	return 0
}

// Key returns the method key the cell is stored under: the plain method
// key for accuracy cells, MuxKey or TenantKey otherwise. It is the single
// definition shared by measurement, store lookup and reports, so no two
// of them can key a cell differently.
func (c Cell) Key() string {
	switch c.Regime.Kind {
	case MuxCell:
		return MuxKey(c.Regime.Policy, len(c.Regime.Events), c.timeslice())
	case TenantCell:
		return TenantKey(c.Regime.Tenants, c.timeslice(), c.Method.Key)
	}
	return c.Method.Key
}

// The store-key prefixes of the non-accuracy kinds. No registered
// sampling method key starts with either.
const (
	muxKeyPrefix    = "mux-"
	tenantKeyPrefix = "tn-"
)

// KeyKind reports which cell kind a store method key belongs to — the
// inverse of Cell.Key, so readers of a results store (cmd/pmureport)
// never parse the key format themselves.
func KeyKind(method string) CellKind {
	switch {
	case strings.HasPrefix(method, muxKeyPrefix):
		return MuxCell
	case strings.HasPrefix(method, tenantKeyPrefix):
		return TenantCell
	}
	return AccuracyCell
}

// specsByName and methodsByKey resolve the built-in workload names and
// method keys an experiment definition names; a name the registry lacks
// is a programming error, so they panic.
func specsByName(names ...string) []workloads.Spec {
	specs := make([]workloads.Spec, len(names))
	for i, name := range names {
		s, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		specs[i] = s
	}
	return specs
}

func methodsByKey(keys ...string) []sampling.Method {
	ms := make([]sampling.Method, len(keys))
	for i, key := range keys {
		m, err := sampling.MethodByKey(key)
		if err != nil {
			panic(err)
		}
		ms[i] = m
	}
	return ms
}

func (g Grid) regimes() []Regime {
	if len(g.Regimes) == 0 {
		return []Regime{{}}
	}
	return g.Regimes
}

// Cells returns the grid's cells in canonical order: workloads outermost,
// then machines, then methods, then regimes. Sweep results follow this
// order no matter how the cells were scheduled.
func (g Grid) Cells() []Cell {
	cells := make([]Cell, 0, g.Size())
	regimes := g.regimes()
	for _, spec := range g.Workloads {
		for _, mach := range g.Machines {
			for _, m := range g.Methods {
				for _, rg := range regimes {
					cells = append(cells, Cell{Workload: spec, Machine: mach, Method: m, Regime: rg})
				}
			}
		}
	}
	return cells
}

// Size returns the number of cells in the grid.
func (g Grid) Size() int {
	return len(g.Workloads) * len(g.Machines) * len(g.Methods) * len(g.regimes())
}

// GridByName returns the cell grid of a named matrix experiment — the
// exact cells RunTable1, RunTable2 and RunPhased sweep. The distributed
// sweep planner (internal/sweepd) partitions these grids, so the mapping
// from experiment name to cell set must stay identical between the
// single-process and sharded paths.
func GridByName(name string) (Grid, error) {
	switch name {
	case "table1":
		return Grid{Workloads: workloads.Kernels(), Machines: machine.All(), Methods: sampling.Registry()}, nil
	case "table2":
		return Grid{Workloads: workloads.Apps(), Machines: machine.All(), Methods: sampling.Registry()}, nil
	case "phased":
		return Grid{Workloads: workloads.PhasedFamily(), Machines: machine.All(), Methods: sampling.Registry()}, nil
	}
	return Grid{}, fmt.Errorf("experiments: no cell grid for experiment %q (matrix experiments: table1, table2, phased)", name)
}

// SweepOptions bounds a sweep's parallelism and wall-clock time. The
// zero value inherits the Runner's Parallel and Timeout fields.
type SweepOptions struct {
	// Parallel is the worker count; <= 0 falls back to Runner.Parallel,
	// then to runtime.GOMAXPROCS(0).
	Parallel int
	// Timeout aborts the sweep after the given wall-clock time: cells
	// already running finish (cells are not interruptible), unstarted
	// cells are abandoned, and the sweep returns an error. A sweep whose
	// cells were all dispatched before the deadline completes normally.
	// 0 falls back to Runner.Timeout (0 = none).
	Timeout time.Duration
}

// Sweep measures every grid cell on a bounded worker pool and returns
// the measurements in Cells order. Because each cell's seeds derive from
// its identity and the Runner caches are single-flight, the result is
// bit-identical for any worker count. Cells whose measurement fails keep
// their partial Measurement in the slice; the first failure (in cell
// order) is returned as the error.
func (r *Runner) Sweep(g Grid, opt SweepOptions) ([]Measurement, error) {
	ms, _, err := r.SweepCached(g, nil, opt)
	return ms, err
}

// sweepCells is the one pool loop every sweep dispatches through: each
// cell runs MeasureCell against st (nil: measure everything), results
// come back in cell order. Cells abandoned by a timeout keep a named
// no-result entry (Failed, Err -1) rather than an anonymous zero value —
// distinguishable from a genuinely unsupported cell, which has Failed
// false. The stats count served and measured cells; abandoned cells
// count in neither.
func (r *Runner) sweepCells(cells []Cell, st results.Store, opt SweepOptions) ([]CellResult, SweepStats, error) {
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		out[i] = CellResult{Measurement: Measurement{Workload: c.Workload.Name, Machine: c.Machine.Name, Method: c.Key(), Err: -1, Failed: true}, cell: c}
	}
	var served, measured atomic.Int64
	err := r.forEach(len(cells), opt, func(i int) error {
		res, err := r.MeasureCell(cells[i], st)
		out[i] = res
		if res.Served {
			served.Add(1)
		} else {
			measured.Add(1)
		}
		return err
	})
	return out, SweepStats{Cached: int(served.Load()), Measured: int(measured.Load())}, err
}

// opts returns the Runner's default sweep options; the internal table
// runners all dispatch through this so -parallel/-timeout apply
// uniformly.
func (r *Runner) opts() SweepOptions {
	return SweepOptions{Parallel: r.Parallel, Timeout: r.Timeout}
}

// flatIdx and splitIdx convert between a flat job index and the (outer,
// inner) coordinates of a grid whose inner axis is width wide. Table
// runners that interleave two sweep axes into one forEach index use this
// pair for both the job-side decode and the result-side lookup, so the
// two cannot drift apart.
func flatIdx(outer, inner, width int) int { return outer*width + inner }

func splitIdx(i, width int) (outer, inner int) { return i / width, i % width }

// forEach resolves the sweep options against the Runner's defaults and
// runs jobs 0..n-1 on the shared bounded worker pool (internal/pool):
// every job runs even when earlier ones fail (a sweep keeps its partial
// results), the returned error is the first failure by job index, and
// on timeout running jobs complete while unstarted ones are dropped.
func (r *Runner) forEach(n int, opt SweepOptions, job func(i int) error) error {
	workers := opt.Parallel
	if workers <= 0 {
		workers = r.Parallel
	}
	timeout := opt.Timeout
	if timeout == 0 {
		timeout = r.Timeout
	}
	err := pool.ForEach(n, workers, timeout, job)
	if errors.Is(err, pool.ErrTimeout) {
		// Keep pool.ErrTimeout in the chain so callers can errors.Is it.
		return fmt.Errorf("experiments: sweep timed out after %v (%w)", timeout, pool.ErrTimeout)
	}
	return err
}
