package experiments

import (
	"strings"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// TestMuxEventsTable: the headline acceptance property — the experiment
// emits a deterministic table covering all 3 machines, identical at any
// worker count and under the self-checking EngineBoth mode, with zero
// error inside the counter budget and growing error beyond it.
func TestMuxEventsTable(t *testing.T) {
	render := func(parallel int, engine sampling.EngineMode) (string, []MuxMeasurement) {
		r := NewRunner(SmallScale(), 42)
		r.Parallel = parallel
		r.Engine = engine
		tb, ms, err := r.RunMuxEvents()
		if err != nil {
			t.Fatal(err)
		}
		return tb.String(), ms
	}

	t1, ms := render(1, sampling.EngineFast)
	t4, _ := render(4, sampling.EngineFast)
	if t1 != t4 {
		t.Fatalf("table differs across worker counts:\n%s\nvs\n%s", t1, t4)
	}
	if !testing.Short() {
		tBoth, _ := render(2, sampling.EngineBoth)
		if t1 != tBoth {
			t.Fatalf("table differs under EngineBoth:\n%s\nvs\n%s", t1, tBoth)
		}
	}

	for _, mach := range machine.All() {
		if !strings.Contains(t1, mach.Name) {
			t.Errorf("table lacks machine %s:\n%s", mach.Name, t1)
		}
	}
	if !strings.Contains(t1, "PhaseShift") {
		t.Errorf("table lacks the phased workload:\n%s", t1)
	}

	// n=2 fits every machine's budget (4 general counters, sampler
	// pinned) — zero multiplexing error; n=10 cannot fit — nonzero.
	byKey := make(map[string][]MuxMeasurement)
	for _, m := range ms {
		byKey[m.Key] = append(byKey[m.Key], m)
	}
	for key, cells := range byKey {
		n2 := strings.Contains(key, "-n02-")
		for _, c := range cells {
			if n2 && (c.MeanErr != 0 || c.Rotations != 0) {
				t.Errorf("%s/%s/%s: within-budget cell has err %g, %d rotations",
					c.Workload, c.Machine, key, c.MeanErr, c.Rotations)
			}
			if strings.Contains(key, "-n10-") && c.Rotations == 0 {
				t.Errorf("%s/%s/%s: overcommitted cell never rotated", c.Workload, c.Machine, key)
			}
		}
	}
}

// TestMuxPhaseSensitivity: the phased workload must show (strictly) more
// multiplexing error than the steady kernels at the default timeslice —
// the "workload phase behavior" axis of the experiment family.
func TestMuxPhaseSensitivity(t *testing.T) {
	r := NewRunner(SmallScale(), 42)
	events := MuxEventMenu()[:8]
	mach := machine.IvyBridge()
	phase, err := r.MeasureMux(workloads.PhaseShiftSpec(), mach, events, 0, pmu.MuxRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := workloads.ByName("LatencyBiased")
	if err != nil {
		t.Fatal(err)
	}
	steady, err := r.MeasureMux(lb, mach, events, 0, pmu.MuxRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if phase.MeanErr <= steady.MeanErr {
		t.Errorf("phase sensitivity inverted: PhaseShift err %g <= LatencyBiased err %g",
			phase.MeanErr, steady.MeanErr)
	}
}

// TestMuxPolicyTable: priority starves exactly the overflow events while
// round-robin counts everything approximately.
func TestMuxPolicyTable(t *testing.T) {
	r := NewRunner(SmallScale(), 42)
	events := MuxEventMenu()[:8]
	lb, err := workloads.ByName("LatencyBiased")
	if err != nil {
		t.Fatal(err)
	}

	rr, err := r.MeasureMux(lb, machine.MagnyCours(), events, 0, pmu.MuxRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Starved != 0 {
		t.Errorf("round-robin starved %d events", rr.Starved)
	}
	prio, err := r.MeasureMux(lb, machine.MagnyCours(), events, 0, pmu.MuxPriority)
	if err != nil {
		t.Fatal(err)
	}
	// Magny-Cours: 4 general counters, no fixed, classic sampler pins one
	// — 3 left for 8 requested events, so 5 starve under priority.
	if prio.Starved != 5 {
		t.Errorf("priority starved %d events, want 5", prio.Starved)
	}
	if prio.Rotations != 0 {
		t.Errorf("priority policy rotated %d times", prio.Rotations)
	}
}

// TestMuxStoreResume: mux cells are store-addressable like accuracy
// cells — a warm resume re-measures nothing and renders byte-identically.
func TestMuxStoreResume(t *testing.T) {
	path := t.TempDir() + "/mux.jsonl"
	st, err := results.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(SmallScale(), 42)
	r.Store = st
	t1, _, err := r.RunMuxEvents()
	if err != nil {
		t.Fatal(err)
	}
	cold := r.StoreStats()
	if cold.Measured == 0 || cold.Cached != 0 {
		t.Fatalf("cold run stats: %+v", cold)
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
	r2.Store = st2
	t2, _, err := r2.RunMuxEvents()
	if err != nil {
		t.Fatal(err)
	}
	warm := r2.StoreStats()
	if warm.Measured != 0 || warm.Cached != cold.Measured {
		t.Fatalf("warm run stats: %+v (cold %+v)", warm, cold)
	}
	if t1.String() != t2.String() {
		t.Fatalf("resumed table differs:\n%s\nvs\n%s", t1, t2)
	}
}

// TestMuxCustomTable: the -events path renders per-event accounting rows.
func TestMuxCustomTable(t *testing.T) {
	r := NewRunner(SmallScale(), 42)
	events := []pmu.Event{pmu.EvLoad, pmu.EvStore, pmu.EvFPOp, pmu.EvBrTaken, pmu.EvCondBr}
	tb, ms, err := r.RunMuxCustom(events, 500, pmu.MuxRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(muxWorkloads())*len(machine.All()) {
		t.Fatalf("measurements = %d", len(ms))
	}
	s := tb.String()
	for _, e := range events {
		if !strings.Contains(s, e.String()) {
			t.Errorf("table lacks event %s", e)
		}
	}
	if _, _, err := r.RunMuxCustom(nil, 0, pmu.MuxRoundRobin); err == nil {
		t.Error("empty event list accepted")
	}
}

// TestMuxKeySelfSorting: the zero-padded keys must order by (policy,
// events, timeslice) lexically, since report.Matrix sorts unknown method
// columns as strings.
func TestMuxKeySelfSorting(t *testing.T) {
	if MuxKey(pmu.MuxRoundRobin, 2, 2000) >= MuxKey(pmu.MuxRoundRobin, 10, 2000) {
		t.Error("n ordering broken")
	}
	if MuxKey(pmu.MuxRoundRobin, 8, 250) >= MuxKey(pmu.MuxRoundRobin, 8, 16000) {
		t.Error("timeslice ordering broken")
	}
	if MuxKey(pmu.MuxRoundRobin, 8, 2000) != "mux-rr-n08-ts02000" {
		t.Errorf("key format drifted: %s", MuxKey(pmu.MuxRoundRobin, 8, 2000))
	}
	// KeyKind inverts every key the builder produces — the routing
	// pmureport relies on — and so does a mux cell's own Key.
	for _, policy := range []pmu.MuxPolicy{pmu.MuxRoundRobin, pmu.MuxPriority} {
		for n := 0; n <= len(MuxEventMenu()); n++ {
			for _, ts := range []uint64{1, 250, 2000, 16000, 99999} {
				if k := MuxKey(policy, n, ts); KeyKind(k) != MuxCell {
					t.Errorf("KeyKind(%q) = %d, want MuxCell", k, KeyKind(k))
				}
			}
			c := Cell{Regime: Regime{Kind: MuxCell, Events: MuxEventMenu()[:n], Policy: policy}}
			if KeyKind(c.Key()) != c.Regime.Kind {
				t.Errorf("mux cell key %q maps to kind %d", c.Key(), KeyKind(c.Key()))
			}
		}
	}
}
