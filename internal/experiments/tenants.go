package experiments

// The multi-tenant scheduling experiment family: how much accuracy does
// each sampling method lose when the machine is time-shared? The
// scheduler (internal/sched) runs N copies of the workload on one
// simulated core with per-task PMU save/restore; tenant 0 is the
// measured process and the others are interference. The simulator holds
// per-tenant ground truth — the same workload's exact reference profile
// — so the degradation is measured directly, per mechanism: kernel
// switch-path leakage, lost in-kernel samples, cross-tenant skid
// (foreign samples), against tenant count and scheduler timeslice. The
// single-tenant column is collected by the unscheduled sampling path and
// is bit-identical to the plain accuracy tables' cells: the zero-noise
// anchor.

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/workloads"
)

// DefaultTenantCounts is the tenant-count sweep of the scheduling-noise
// table: exclusive, and 2/4/8-way time sharing.
func DefaultTenantCounts() []int { return []int{1, 2, 4, 8} }

// TenantKey returns the synthetic method key a scheduling cell is stored
// under, e.g. "tn-n04-ts16000-classic". Zero padding keeps the keys
// lexically self-sorting like MuxKey's.
func TenantKey(n int, timeslice uint64, method string) string {
	return fmt.Sprintf(tenantKeyPrefix+"n%02d-ts%05d-%s", n, timeslice, method)
}

// TenantMeasurement is one scheduling cell: the accuracy of one sampling
// method for the measured tenant under one (tenant count, timeslice)
// scheduling regime.
type TenantMeasurement struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// Method is the sampling method key; Key is the synthetic store key
	// (TenantKey) carrying the scheduling regime.
	Method  string `json:"method"`
	Key     string `json:"key"`
	Tenants int    `json:"tenants"`
	// Err is the measured tenant's accuracy error averaged over
	// successful repeats; -1 when unsupported or all repeats failed.
	Err       float64   `json:"err"`
	PerRepeat []float64 `json:"per_repeat,omitempty"`
	// Samples is the measured tenant's sample count of the first repeat.
	Samples int `json:"samples"`
	// Sched is the measured tenant's noise accounting from the first
	// repeat; nil for single-tenant cells (no scheduling) and for cells
	// served from a results store, which persists only the summary.
	Sched     *sampling.SchedStats `json:"sched,omitempty"`
	Supported bool                 `json:"supported"`
	Failed    bool                 `json:"failed,omitempty"`
}

// MeasureTenants measures one scheduling cell over the configured
// repeats, with Measure's aggregation conventions (derived repeat seeds,
// -1 for unsupported/dead cells, joined per-repeat failures). The seeds
// are the plain cell's: with n = 1 the result equals Measure's.
func (r *Runner) MeasureTenants(spec workloads.Spec, mach machine.Machine, m sampling.Method,
	n int, timeslice, switchCost uint64) (TenantMeasurement, error) {

	res, err := r.measure(Cell{Workload: spec, Machine: mach, Method: m,
		Regime: Regime{Kind: TenantCell, Tenants: n, Timeslice: timeslice, SwitchCost: switchCost}})
	return res.tenant(), err
}

// tenant is the TenantMeasurement view of a tenant cell's result.
func (res CellResult) tenant() TenantMeasurement {
	return TenantMeasurement{
		Workload: res.Workload, Machine: res.Machine, Method: res.cell.Method.Key, Key: res.Method,
		Tenants: res.cell.Regime.Tenants, Err: res.Err, PerRepeat: res.PerRepeat, Samples: res.Samples,
		Sched: res.sched, Supported: res.Supported, Failed: res.Failed,
	}
}

// tenantWorkloads returns the workload rows of the scheduling tables: one
// latency-heavy and one branchy paper kernel, enough to show the noise
// mechanisms without squaring the grid.
func tenantWorkloads() []workloads.Spec { return specsByName("LatencyBiased", "G4Box") }

// tenantMethods returns one representative per capture mechanism:
// imprecise interrupt sampling, PEBS, the distribution-guaranteed PDIR
// with the IP fix, and the LBR profile — the mechanisms the scheduler's
// drain model treats differently.
func tenantMethods() []sampling.Method {
	return methodsByKey("classic", "precise", "pdir+ipfix", "lbr")
}

// tenantMatrix measures a (workload × machine × method × column) grid of
// tenant cells and renders one row per workload × machine × method, one
// column per scheduling regime. The cell text is the measured tenant's
// accuracy error.
func (r *Runner) tenantMatrix(title string, cols []column, switchCost uint64) (*report.Table, []TenantMeasurement, error) {
	for i := range cols {
		cols[i].Regime.Kind, cols[i].Regime.SwitchCost = TenantCell, switchCost
	}
	g := Grid{Workloads: tenantWorkloads(), Machines: machine.All(), Methods: tenantMethods()}
	t, res, err := r.regimeMatrix(title, []string{"workload", "machine", "method"}, g, cols)
	out := make([]TenantMeasurement, len(res))
	for i := range res {
		out[i] = res[i].tenant()
	}
	return t, out, err
}

// RunTenants measures per-method accuracy degradation against the tenant
// count at the default scheduler period — the "scheduling noise" table.
// The n=1 column is collected unscheduled and matches the plain accuracy
// tables bit for bit. A nil counts slice selects DefaultTenantCounts; a
// zero switchCost uses each machine's CtxSwitchCostCycles.
func (r *Runner) RunTenants(counts []int, switchCost uint64) (*report.Table, []TenantMeasurement, error) {
	if len(counts) == 0 {
		counts = DefaultTenantCounts()
	}
	var cols []column
	for _, n := range counts {
		if n < 1 {
			return nil, nil, fmt.Errorf("experiments: tenant count %d < 1", n)
		}
		cols = append(cols, column{Label: fmt.Sprintf("n=%d", n), Regime: Regime{Tenants: n}})
	}
	t, ms, err := r.tenantMatrix(
		"Scheduling noise: accuracy error vs tenant count (lower is better)",
		cols, switchCost)
	if err == nil {
		t.Note = fmt.Sprintf(
			"CFS-style slices of %d/n cycles: the switch rate grows with the tenant count. "+
				"Each switch drains in-flight captures (foreign samples for the successor) and leaks "+
				"kernel switch-path events into the restored counters; n=1 is the unscheduled baseline.",
			uint64(sched.DefaultPeriodCycles))
	}
	return t, ms, err
}

// RunTenantsTimeslice measures accuracy degradation against the scheduler
// period at a fixed four-way tenancy: shorter slices mean more switches,
// more drained captures and more kernel leakage per retired instruction.
func (r *Runner) RunTenantsTimeslice(switchCost uint64) (*report.Table, []TenantMeasurement, error) {
	var cols []column
	for _, ts := range []uint64{4000, 16000, 64000} {
		cols = append(cols, column{Label: fmt.Sprintf("ts=%d", ts), Regime: Regime{Tenants: 4, Timeslice: ts}})
	}
	t, ms, err := r.tenantMatrix(
		"Scheduling noise: accuracy error vs scheduler period, 4 tenants (lower is better)",
		cols, switchCost)
	if err == nil {
		t.Note = "Four tenants sharing one core; each runs period/4 cycles per slice. " +
			"PDIR never holds pending capture state, so it is immune to the cross-tenant skid drain " +
			"and degrades only through kernel leakage."
	}
	return t, ms, err
}
