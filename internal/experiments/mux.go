package experiments

// The counter-multiplexing experiment family: how far can perf-style
// scaled counts (count * enabled/running) be trusted? The simulator runs
// the OS-style virtualized PMU (pmu.Mux) on top of each machine's
// physical counter budget and compares every scaled estimate against the
// exact ground-truth count it uniquely has — a new error-source axis next
// to the paper's sampling-method comparison: the x-axes are the number of
// requested events, the rotation timeslice, and (via the PhaseShift
// workload) how badly workload phases break the stationarity assumption
// behind the scaling.

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/report"
	"pmutrust/internal/workloads"
)

// MuxEventMenu is the canonical request-list order: experiments that ask
// for "n events" request the first n. Instructions-retired comes first
// (the most commonly requested event; on Intel the classic sampler
// already holds the fixed counter, so even it needs a general counter
// here), then the rate-diverse rest.
func MuxEventMenu() []pmu.Event {
	return []pmu.Event{
		pmu.EvInstRetired, pmu.EvBrTaken, pmu.EvLoad, pmu.EvStore, pmu.EvCondBr,
		pmu.EvUopsRetired, pmu.EvFPOp, pmu.EvBrMispred, pmu.EvCall, pmu.EvRet,
	}
}

// MuxKey returns the synthetic method key a multiplexing cell is stored
// under, e.g. "mux-rr-n06-ts02000". The zero padding makes the keys
// lexically self-sorting, so report.Matrix orders columns by (policy,
// events, timeslice) without a bespoke comparator.
func MuxKey(policy pmu.MuxPolicy, nEvents int, timeslice uint64) string {
	return fmt.Sprintf(muxKeyPrefix+"%s-n%02d-ts%05d", policy, nEvents, timeslice)
}

// MuxMeasurement is one multiplexing cell: the counting-error summary of
// one (workload, machine, event list, timeslice, policy) run.
type MuxMeasurement struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// Key is the synthetic method key (MuxKey) the cell is stored under.
	Key string `json:"key"`
	// MeanErr and MaxErr summarize the per-event relative counting error
	// |scaled - exact| / exact over the requested events (starved events
	// count as error 1).
	MeanErr float64 `json:"mean_err"`
	// MaxErr is -1 when the cell was served from a results store, which
	// persists only the MeanErr summary (the repo's "-1 = not available"
	// convention, like Measurement.Err for dead cells).
	MaxErr float64 `json:"max_err"`
	// Rotations is the number of counter rotations serviced.
	Rotations uint64 `json:"rotations"`
	// Starved is the number of requested events that never held a
	// counter; -1 when served from a store (see MaxErr).
	Starved int `json:"starved"`
	// Counts holds the full per-event outcome (exact, raw, scaled,
	// enabled/running). Nil when the cell was served from a results store,
	// which persists only the summary.
	Counts []pmu.MuxCount `json:"counts,omitempty"`
}

// muxWorkloads returns the workload rows of the mux tables: two paper
// kernels with steady event mixes and two phased stress workloads that
// break the scaling assumption — the hand-built PhaseShift and the
// spec-generated PhasedBurst, whose burst schedule concentrates the FP
// phase into every 8th macro iteration at 6x intensity (the worst case
// for enabled/running extrapolation: the owned windows mostly miss the
// bursts).
func muxWorkloads() []workloads.Spec {
	return specsByName("LatencyBiased", "G4Box", "PhaseShift", "PhasedBurst")
}

// MeasureMux runs one multiplexed collection — classic sampling plus the
// requested counting events — and summarizes the multiplexing-induced
// counting error. A zero timeslice selects pmu.DefaultMuxTimeslice.
func (r *Runner) MeasureMux(spec workloads.Spec, mach machine.Machine, events []pmu.Event, timeslice uint64, policy pmu.MuxPolicy) (MuxMeasurement, error) {
	res, err := r.measure(Cell{Workload: spec, Machine: mach, Method: methodsByKey("classic")[0],
		Regime: Regime{Kind: MuxCell, Events: events, Timeslice: timeslice, Policy: policy}})
	return res.mux(), err
}

// measureMux measures a mux cell: one collection seeded like a single
// repeat, summarized under the store codec's mux convention (Err is the
// mean per-event error, Samples the rotation count).
func (r *Runner) measureMux(c Cell, res *CellResult) error {
	run, err := r.collect(c, r.Workload(c.Workload), r.repeatSeed(c, 0))
	if err != nil {
		return err
	}
	var sum float64
	for _, cnt := range run.Counts {
		e := cnt.RelError()
		sum += e
		if e > res.maxErr {
			res.maxErr = e
		}
		if cnt.RunningCycles == 0 {
			res.starved++
		}
	}
	res.Err = sum / float64(len(run.Counts))
	res.Samples = int(run.MuxRotations)
	res.Supported = true
	res.counts = run.Counts
	return nil
}

// mux is the MuxMeasurement view of a mux cell's result. A served cell
// carries only the stored summary; its unrecoverable fields read -1
// (not available) rather than a genuine zero.
func (res CellResult) mux() MuxMeasurement {
	m := MuxMeasurement{
		Workload: res.Workload, Machine: res.Machine, Key: res.Method,
		MeanErr: res.Err, MaxErr: res.maxErr, Rotations: uint64(res.Samples),
		Starved: res.starved, Counts: res.counts,
	}
	if res.Served {
		m.MaxErr, m.Starved = -1, -1
	}
	return m
}

// muxMatrix measures a (workload × machine × config) grid of mux cells
// and renders one row per workload × machine, one column per config: the
// shape every mux table shares. The cell text is the mean relative
// counting error.
func (r *Runner) muxMatrix(title string, cols []column) (*report.Table, []MuxMeasurement, error) {
	for i := range cols {
		cols[i].Regime.Kind = MuxCell
	}
	g := Grid{Workloads: muxWorkloads(), Machines: machine.All(), Methods: methodsByKey("classic")}
	t, res, err := r.regimeMatrix(title, []string{"workload", "machine"}, g, cols)
	return t, muxMeasurements(res), err
}

func muxMeasurements(res []CellResult) []MuxMeasurement {
	out := make([]MuxMeasurement, len(res))
	for i := range res {
		out[i] = res[i].mux()
	}
	return out
}

// RunMuxEvents measures multiplexing error against the number of
// requested events at the default timeslice under round-robin rotation.
// Within the counter budget the error is exactly zero; each event past it
// stretches every event's extrapolation further.
func (r *Runner) RunMuxEvents() (*report.Table, []MuxMeasurement, error) {
	menu := MuxEventMenu()
	var cols []column
	for _, n := range []int{2, 4, 6, 8, 10} {
		cols = append(cols, column{Label: fmt.Sprintf("n=%d", n), Regime: Regime{Events: menu[:n]}})
	}
	t, ms, err := r.muxMatrix(
		"Multiplexing error vs requested events (mean |scaled-exact|/exact; lower is better)",
		cols)
	if err == nil {
		t.Note = fmt.Sprintf(
			"Round-robin rotation, timeslice %d cycles; classic sampling pinned alongside. "+
				"All machines have 4 general counters; on Intel the sampler rides the fixed counter, on AMD it costs a general one.",
			uint64(pmu.DefaultMuxTimeslice))
	}
	return t, ms, err
}

// RunMuxTimeslice measures multiplexing error against the rotation
// timeslice at a fixed 8-event request list. Shorter timeslices sample
// each event's rate more often and track phases better — at the price of
// rotation overhead a real kernel would pay; the PhaseShift rows show the
// aliasing blow-up when windows and phases are commensurate.
func (r *Runner) RunMuxTimeslice() (*report.Table, []MuxMeasurement, error) {
	menu := MuxEventMenu()
	var cols []column
	for _, ts := range []uint64{250, 1000, 4000, 16000} {
		cols = append(cols, column{Label: fmt.Sprintf("ts=%d", ts), Regime: Regime{Events: menu[:8], Timeslice: ts}})
	}
	t, ms, err := r.muxMatrix(
		"Multiplexing error vs rotation timeslice, 8 requested events (lower is better)",
		cols)
	if err == nil {
		t.Note = "Round-robin rotation. PhaseShift alternates memory-only and FP/branch-only phases " +
			"about one timeslice long: scaled counts assume stationary rates, so its errors dwarf the steady kernels'."
	}
	return t, ms, err
}

// RunMuxPolicy contrasts the rotation policies at an 8-event request
// list: round-robin spreads estimation error over every event, priority
// gives the first events exact counts and the rest nothing.
func (r *Runner) RunMuxPolicy() (*report.Table, []MuxMeasurement, error) {
	menu := MuxEventMenu()
	cols := []column{
		{Label: "round-robin", Regime: Regime{Events: menu[:8]}},
		{Label: "priority", Regime: Regime{Events: menu[:8], Policy: pmu.MuxPriority}},
	}
	t, ms, err := r.muxMatrix(
		"Multiplexing error vs rotation policy, 8 requested events (lower is better)",
		cols)
	if err == nil {
		t.Note = "Priority scheduling is perf's pinned-event mode: scheduled events are exact, " +
			"overflow events are never counted (error 1 each, like perf's \"<not counted>\")."
	}
	return t, ms, err
}

// RunMuxCustom measures one explicit event list across the mux workloads
// and machines and renders the full per-event accounting — the table
// behind `pmubench -events`. It never touches the Runner's store: MuxKey
// encodes only the event count, so two different lists of one length
// would share a store key.
func (r *Runner) RunMuxCustom(events []pmu.Event, timeslice uint64, policy pmu.MuxPolicy) (*report.Table, []MuxMeasurement, error) {
	if len(events) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty event list")
	}
	g := Grid{Workloads: muxWorkloads(), Machines: machine.All(), Methods: methodsByKey("classic"),
		Regimes: []Regime{{Kind: MuxCell, Events: events, Timeslice: timeslice, Policy: policy}}}
	res, _, err := r.sweepCells(g.Cells(), nil, r.opts())
	out := muxMeasurements(res)
	if err != nil {
		return nil, out, err
	}

	t := report.New(
		fmt.Sprintf("Multiplexed counting: %s (policy %s)", pmu.EventListString(events), policy),
		"workload", "machine", "event", "exact", "scaled", "rel err", "running/enabled", "rotations")
	for _, meas := range out {
		for _, c := range meas.Counts {
			exact, scaled, relErr, running := c.TableCells()
			t.AddRow(meas.Workload, meas.Machine, c.Event.String(),
				exact, scaled, relErr, running, fmt.Sprintf("%d", meas.Rotations))
		}
	}
	t.Note = "scaled = raw * enabled/running, the estimate perf reports under multiplexing; " +
		"exact is the simulator's ground truth."
	return t, out, nil
}
