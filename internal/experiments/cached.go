package experiments

import (
	"fmt"

	"pmutrust/internal/pmu"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
)

// CellIdentity returns the results-store identity of one cell under this
// runner's configuration: the cell coordinates, with the cell's store key
// (Cell.Key) on the method axis, plus every scale and seed knob that
// feeds the measurement. Its Key() is the content address MeasureCell
// caches under; accuracy, mux and tenant records share one store.
func (r *Runner) CellIdentity(c Cell) results.Identity {
	return results.Identity{
		Workload:      c.Workload.Name,
		Machine:       c.Machine.Name,
		Method:        c.Key(),
		Scale:         r.Scale.Name,
		WorkloadScale: r.Scale.Workload,
		PeriodBase:    r.Scale.PeriodBase,
		Seed:          r.Seed,
		Repeats:       r.Scale.Repeats,
	}
}

// CellRecord converts a completed measurement of cell c into its store
// form — the record MeasureCell appends, in a single process or a
// distributed worker (internal/sweepd) alike. A mux cell's summary rides
// the same fields: Err is its MeanErr and Samples its Rotations.
func (r *Runner) CellRecord(c Cell, m Measurement) results.Record {
	id := r.CellIdentity(c)
	return results.Record{
		Key:       id.Key(),
		Identity:  id,
		Err:       m.Err,
		PerRepeat: m.PerRepeat,
		Samples:   m.Samples,
		Supported: m.Supported,
		Failed:    m.Failed,
	}
}

// fromRecord reconstructs the measurement a stored record captured. It is
// the exact inverse of CellRecord over the measurement fields, which is
// what makes a resumed sweep's aggregate byte-identical to a fresh one.
func fromRecord(rec results.Record) Measurement {
	return Measurement{
		Workload:  rec.Workload,
		Machine:   rec.Machine,
		Method:    rec.Method,
		Err:       rec.Err,
		PerRepeat: rec.PerRepeat,
		Samples:   rec.Samples,
		Supported: rec.Supported,
		Failed:    rec.Failed,
	}
}

// SweepStats reports how a cached sweep split its work.
type SweepStats struct {
	// Cached is the number of cells served from the store.
	Cached int
	// Measured is the number of cells actually measured this run (and,
	// on success, appended to the store). Cells a sweep timeout
	// abandoned before dispatch count in neither field.
	Measured int
}

// CellResult is one cell's outcome on the cell path: the summary a store
// persists (Measurement, Method holding the cell's store key) plus the
// per-kind detail it does not, present only when the cell was measured
// rather than served.
type CellResult struct {
	Measurement
	// Served reports that the cell came from the results store.
	Served bool

	cell    Cell
	sched   *sampling.SchedStats // tenant cells: first repeat's noise accounting
	counts  []pmu.MuxCount       // mux cells: per-event outcome
	maxErr  float64              // mux cells: worst per-event error
	starved int                  // mux cells: events that never held a counter
}

// MeasureCell is the single per-cell body of every sweep — the table
// runners' pool loop and internal/sweepd's worker loop alike. With a
// non-nil st, a cell already stored is served from it and a newly
// measured one is appended; failed cells are not stored, so a later
// resume retries them. The served/measured split accumulates into
// StoreStats and the telemetry sink. Errors name the cell.
func (r *Runner) MeasureCell(c Cell, st results.Store) (CellResult, error) {
	if st != nil {
		if rec, ok := st.Get(r.CellIdentity(c).Key()); ok {
			r.mu.Lock()
			r.storeStats.Cached++
			r.mu.Unlock()
			r.Telemetry.CountStored(1)
			return CellResult{Measurement: fromRecord(rec), Served: true, cell: c}, nil
		}
	}
	res, err := r.measure(c)
	if st != nil {
		r.mu.Lock()
		r.storeStats.Measured++
		r.mu.Unlock()
		if err == nil {
			err = st.Put(r.CellRecord(c, res.Measurement))
		}
	}
	if err != nil {
		err = fmt.Errorf("%s/%s/%s: %w", c.Workload.Name, c.Machine.Name, c.Key(), err)
	}
	return res, err
}

// SweepCached is Sweep with a persistent results store: cells whose
// content-addressed identity is already present in st are returned from
// the store without re-measuring, the rest are measured on the worker
// pool and appended to st as they complete. Failed cells are *not*
// stored, so a later resume retries them. A nil st measures every cell.
//
// Because measurements are pure functions of the cell identity (the same
// property that makes Sweep order-independent), serving a cell from the
// store is indistinguishable from re-measuring it: an interrupted sweep
// resumed against its store produces byte-identical aggregates to an
// uninterrupted run.
func (r *Runner) SweepCached(g Grid, st results.Store, opt SweepOptions) ([]Measurement, SweepStats, error) {
	res, stats, err := r.sweepCells(g.Cells(), st, opt)
	out := make([]Measurement, len(res))
	for i := range res {
		out[i] = res[i].Measurement
	}
	return out, stats, err
}

// StoreStats returns the accumulated served/measured split of every
// store-aware cell this Runner has dispatched — the observable behind
// `pmubench`'s end-of-run store summary (a fully warm resume reports
// zero measured).
func (r *Runner) StoreStats() SweepStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeStats
}
