package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/results"
	"pmutrust/internal/workloads"
)

// TestPhasedIdentityKeysStable pins the results-store identity keys of
// the phased family (and one pre-existing workload as the control) under
// the canonical SmallScale/seed-42 runner, plus one mux and one tenant
// cell, whose regime rides the method axis of the same identity. These
// hexes are what stored sweeps are addressed by: if this test fails, a
// change has silently invalidated every existing store file — either
// revert it or document the store-format break.
func TestPhasedIdentityKeysStable(t *testing.T) {
	r := NewRunner(SmallScale(), 42)
	classic := methodsByKey("classic")[0]
	cell := func(name string, rg Regime) Cell {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return Cell{Workload: spec, Machine: machine.IvyBridge(), Method: classic, Regime: rg}
	}
	for _, tc := range []struct {
		c    Cell
		want string
	}{
		{cell("LatencyBiased", Regime{}), "6509494207d7f277"}, // control: pre-existing key unchanged
		{cell("PhaseShift", Regime{}), "8528d479b0394d2d"},
		{cell("PhasedAlt", Regime{}), "55bde39dfa377337"},
		{cell("PhasedBurst", Regime{}), "102011b9dff02eb6"},
		{cell("PhasedRamp", Regime{}), "ebde8bf638321204"},
		{cell("LatencyBiased", Regime{Kind: MuxCell, Events: MuxEventMenu()[:6]}), "72e4d679f19f9dfb"},
		{cell("LatencyBiased", Regime{Kind: TenantCell, Tenants: 4}), "3801c56865e9a33b"},
	} {
		if got := r.CellIdentity(tc.c).Key(); got != tc.want {
			t.Errorf("%s/%s: identity key %s, want %s (store compatibility break)",
				tc.c.Workload.Name, tc.c.Key(), got, tc.want)
		}
	}
}

// TestPhasedFamilyInMuxRows checks the registration side of the phased
// family: the mux tables gained the generated burst workload next to the
// hand-built PhaseShift.
func TestPhasedFamilyInMuxRows(t *testing.T) {
	names := make(map[string]bool)
	for _, s := range muxWorkloads() {
		names[s.Name] = true
	}
	for _, want := range []string{"PhaseShift", "PhasedBurst"} {
		if !names[want] {
			t.Errorf("mux workload rows missing %s: %v", want, names)
		}
	}
}

// TestRunPhasedStoreRoundTrip: RunPhased through a real store file, then
// a second run resuming from it. The resume must measure nothing and
// render a byte-identical table — the phased family obeys the same
// store/resume contract as Tables 1 and 2.
func TestRunPhasedStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full phased matrix in -short mode")
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := results.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(SmallScale(), 42)
	r1.Parallel = 4
	r1.Store = st
	tr1, err := r1.RunPhased()
	if err != nil {
		t.Fatal(err)
	}
	if stats := r1.StoreStats(); stats.Measured == 0 || stats.Cached != 0 {
		t.Fatalf("cold run stats = %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunner(SmallScale(), 42)
	r2.Parallel = 4
	r2.Store = st2
	tr2, err := r2.RunPhased()
	if err != nil {
		t.Fatal(err)
	}
	if stats := r2.StoreStats(); stats.Measured != 0 {
		t.Errorf("resume re-measured %d cells, want 0", stats.Measured)
	}
	if a, b := tr1.Table.String(), tr2.Table.String(); a != b {
		t.Errorf("resumed table differs:\n%s\nvs\n%s", a, b)
	}
	m1, _ := json.Marshal(tr1.Measurements)
	m2, _ := json.Marshal(tr2.Measurements)
	if !bytes.Equal(m1, m2) {
		t.Error("resumed measurements differ from cold run")
	}

	// Every row family member appears, and at least one cell measured a
	// real (non-negative) error on every workload.
	for _, spec := range workloads.PhasedFamily() {
		cells, ok := tr1.Cells[spec.Name]
		if !ok {
			t.Errorf("table missing workload %s", spec.Name)
			continue
		}
		found := false
		for _, byMethod := range cells {
			for _, v := range byMethod {
				if v >= 0 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("no live measurement for %s", spec.Name)
		}
	}
}

// TestRunWorkloadsAdHoc: the pmubench -spec backend measures a
// user-supplied spec through the standard matrix.
func TestRunWorkloadsAdHoc(t *testing.T) {
	spec, err := workloads.BuiltinPhasedSpec("PhasedRamp")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := spec.WorkloadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// Rename to prove ad-hoc specs need no registry entry.
	ws.Name = "AdHocRamp"
	r := NewRunner(SmallScale(), 7)
	r.Parallel = 4
	tr, err := r.RunWorkloads("ad-hoc spec matrix", []workloads.Spec{ws})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Cells["AdHocRamp"]; !ok {
		t.Fatalf("ad-hoc workload missing from table: %v", tr.Cells)
	}
	if _, err := r.RunWorkloads("empty", nil); err == nil {
		t.Error("empty workload list accepted")
	}
}
