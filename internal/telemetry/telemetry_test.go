package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A nil sink must accept every call and snapshot to zeros — the disabled
// state needs no guards at call sites.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	s.AddEngine(&EngineCounters{Strides: 1})
	s.AddEngine(nil)
	s.CountRun(VariantFull)
	s.ObserveCellWall(time.Millisecond)
	s.CountStored(4)
	s.CountRef(true)
	s.CountLease(true)
	s.CountShardDone()
	s.ObserveHeartbeat(time.Second)
	snap := s.Snapshot("abc")
	if snap.RunID != "abc" || snap.Schema != SnapshotSchema {
		t.Fatalf("nil snapshot header: %+v", snap)
	}
	if snap.Engine.FallbackTotal != 0 || snap.Sweep.CellsMeasured != 0 {
		t.Fatalf("nil snapshot not zero: %+v", snap)
	}
	// All keys must still be present (readers index them unconditionally).
	if len(snap.Engine.Fallbacks) != NumFallbackReasons || len(snap.Engine.Runs) != NumVariants {
		t.Fatalf("nil snapshot missing keys: %+v", snap.Engine)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("nil snapshot invalid: %v", err)
	}
}

func TestSinkAccumulatesAndValidates(t *testing.T) {
	s := &Sink{}
	c := &EngineCounters{Strides: 2, StrideInstrs: 2000, EventInstrs: 17, FusedPairs: 5}
	c.Fallbacks[FallbackOverflow] = 3
	c.Fallbacks[FallbackMuxDeadline] = 1
	s.AddEngine(c)
	s.AddEngine(c)
	s.CountRun(VariantFull)
	s.CountRun(VariantInterp)
	for i := 0; i < 10; i++ {
		s.ObserveCellWall(time.Duration(i) * time.Millisecond)
	}
	s.CountStored(4)
	s.CountRef(true)
	s.CountRef(false)
	s.CountLease(false)
	s.CountLease(true)
	s.CountShardDone()
	s.ObserveHeartbeat(2 * time.Millisecond)
	s.ObserveHeartbeat(time.Millisecond)

	snap := s.Snapshot("run1")
	if err := snap.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := snap.Engine.FallbackTotal; got != 8 {
		t.Errorf("FallbackTotal = %d, want 8", got)
	}
	if snap.Engine.Fallbacks["overflow_adjacent"] != 6 || snap.Engine.Fallbacks["mux_deadline"] != 2 {
		t.Errorf("fallback buckets: %v", snap.Engine.Fallbacks)
	}
	if snap.Engine.Strides != 4 || snap.Engine.StrideInstrs != 4000 || snap.Engine.EventInstrs != 34 {
		t.Errorf("engine: %+v", snap.Engine)
	}
	if snap.Engine.Runs["full"] != 1 || snap.Engine.Runs["interp"] != 1 || snap.Engine.Runs["lean"] != 0 {
		t.Errorf("runs: %v", snap.Engine.Runs)
	}
	if snap.Sweep.CellsMeasured != 10 || snap.Sweep.CellsStored != 4 ||
		snap.Sweep.RefsMeasured != 1 || snap.Sweep.RefsServed != 1 {
		t.Errorf("sweep: %+v", snap.Sweep)
	}
	if snap.Fleet.LeasesAcquired != 2 || snap.Fleet.LeaseSteals != 1 || snap.Fleet.ShardsCompleted != 1 {
		t.Errorf("fleet: %+v", snap.Fleet)
	}
	if snap.Fleet.Heartbeats != 2 || snap.Fleet.HeartbeatLagMaxNs != uint64(2*time.Millisecond) {
		t.Errorf("heartbeats: %+v", snap.Fleet)
	}
}

func TestFallbackBucketSumInvariant(t *testing.T) {
	snap := (&Sink{}).Snapshot("")
	snap.Engine.Fallbacks["ibs_tag"] = 2
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate accepted buckets that do not sum to total")
	}
	snap.Engine.FallbackTotal = 2
	if err := snap.Validate(); err != nil {
		t.Fatalf("Validate rejected consistent snapshot: %v", err)
	}
	snap.Engine.Fallbacks["bogus"] = 0
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate accepted unknown fallback key")
	}

	// Every measured cell is timed exactly once: a hand-built document
	// whose cells_measured disagrees with the cell-wall histogram count
	// (the drift a separate counter allowed) is rejected.
	timed := &Sink{}
	timed.ObserveCellWall(time.Millisecond)
	timed.ObserveCellWall(time.Millisecond)
	snap = timed.Snapshot("")
	if err := snap.Validate(); err != nil {
		t.Fatalf("Validate rejected consistent cell accounting: %v", err)
	}
	snap.Sweep.CellsMeasured = 3
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate accepted cells_measured != cell_wall_ns.count")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(0)
	h.observe(1024)            // still bucket 0 (<= first edge)
	h.observe(1025)            // bucket 1
	h.observe(time.Hour * 100) // overflow bucket
	s := h.snapshot()
	if s.Count != 4 || s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[histMaxBucket] != 1 {
		t.Fatalf("histogram: %+v", s)
	}
	if len(s.UpperBoundsNs) != histMaxBucket || s.UpperBoundsNs[0] != 1024 || s.UpperBoundsNs[1] != 2048 {
		t.Fatalf("edges: %v", s.UpperBoundsNs)
	}
}

func TestMerge(t *testing.T) {
	a := (&Sink{}).Snapshot("r")
	a.Engine.Fallbacks["armed_pebs"] = 1
	a.Engine.FallbackTotal = 1
	a.Fleet.Workers = 1
	a.Fleet.HeartbeatLagMaxNs = 50
	b := (&Sink{}).Snapshot("r")
	b.Engine.Fallbacks["armed_pebs"] = 2
	b.Engine.FallbackTotal = 2
	b.Fleet.Workers = 1
	b.Fleet.HeartbeatLagMaxNs = 70

	m := a.Merge(b)
	if err := m.Validate(); err != nil {
		t.Fatalf("merged invalid: %v", err)
	}
	if m.RunID != "r" {
		t.Errorf("RunID = %q, want r", m.RunID)
	}
	if m.Engine.Fallbacks["armed_pebs"] != 3 || m.Engine.FallbackTotal != 3 {
		t.Errorf("merged fallbacks: %v total %d", m.Engine.Fallbacks, m.Engine.FallbackTotal)
	}
	if m.Fleet.Workers != 2 || m.Fleet.HeartbeatLagMaxNs != 70 {
		t.Errorf("merged fleet: %+v", m.Fleet)
	}

	b.RunID = "other"
	if got := a.Merge(b).RunID; got != "" {
		t.Errorf("mismatched run IDs merged to %q, want empty", got)
	}
	b.RunID = ""
	if got := a.Merge(b).RunID; got != "r" {
		t.Errorf("empty+set run IDs merged to %q, want r", got)
	}
}

func TestMarshalCanonicalDeterministic(t *testing.T) {
	s := &Sink{}
	s.AddEngine(&EngineCounters{Strides: 1, Fallbacks: [NumFallbackReasons]uint64{1, 2, 3, 4, 5, 6}})
	s.CountRun(VariantLean)
	one, err := s.Snapshot("x").MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	two, err := s.Snapshot("x").MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, two) {
		t.Fatalf("canonical form not stable:\n%s\nvs\n%s", one, two)
	}
	if !bytes.HasSuffix(one, []byte("\n")) {
		t.Error("canonical form not newline terminated")
	}
}

func TestPersistRoundTripAndLoadDir(t *testing.T) {
	dir := Dir(t.TempDir())
	s := &Sink{}
	for i := 0; i < 5; i++ {
		s.ObserveCellWall(time.Millisecond)
	}
	s.CountStored(2)
	c := &EngineCounters{}
	c.Fallbacks[FallbackSchedDeadline] = 7
	s.AddEngine(c)
	snapA := s.Snapshot("run")
	snapA.Fleet.Workers = 1
	if err := WriteSnapshot(dir, "worker-a", snapA); err != nil {
		t.Fatal(err)
	}
	snapB := (&Sink{}).Snapshot("run")
	snapB.Fleet.Workers = 1
	snapB.Sweep.CellsStored = 3
	if err := WriteSnapshot(dir, "worker-b", snapB); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSnapshot(filepath.Join(dir, "worker-a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep.CellsMeasured != 5 || got.Engine.Fallbacks["sched_deadline"] != 7 {
		t.Fatalf("round trip: %+v", got)
	}

	merged, n, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || merged.Fleet.Workers != 2 || merged.Sweep.CellsStored != 5 || merged.RunID != "run" {
		t.Fatalf("LoadDir: n=%d %+v", n, merged)
	}

	// Missing directory is an empty fleet.
	empty, n, err := LoadDir(filepath.Join(t.TempDir(), "nope"))
	if err != nil || n != 0 || empty.Schema != SnapshotSchema {
		t.Fatalf("LoadDir missing dir: n=%d err=%v", n, err)
	}

	// A corrupt document fails loudly instead of being silently skipped.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted corrupt document")
	}
}

func TestDeriveRunID(t *testing.T) {
	a := DeriveRunID("sweep", "fingerprint")
	if len(a) != 16 {
		t.Fatalf("run ID %q not 16 hex chars", a)
	}
	if a != DeriveRunID("sweep", "fingerprint") {
		t.Error("run ID not stable")
	}
	if a == DeriveRunID("sweepf", "ingerprint") {
		t.Error("part boundaries not separated")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	s := &Sink{}
	s.ObserveCellWall(time.Millisecond)
	h := Handler(
		func() Snapshot { return s.Snapshot("hid") },
		func() (any, bool) { return map[string]int{"done": 3, "total": 9}, true },
	)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.RunID != "hid" || snap.Sweep.CellsMeasured != 1 {
		t.Fatalf("/metrics body: %+v", snap)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("/metrics snapshot invalid: %v", err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"done": 3`) {
		t.Fatalf("/progress: %d %s", rec.Code, rec.Body.String())
	}

	none := Handler(func() Snapshot { return Snapshot{Schema: SnapshotSchema} },
		func() (any, bool) { return nil, false })
	rec = httptest.NewRecorder()
	none.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/progress before first observation: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", rec.Code)
	}
}

func TestRenderSummary(t *testing.T) {
	s := &Sink{}
	c := &EngineCounters{Strides: 3, StrideInstrs: 900, EventInstrs: 100, FusedPairs: 12}
	c.Fallbacks[FallbackOverflow] = 2
	c.Fallbacks[FallbackHW4LSB] = 5
	s.AddEngine(c)
	s.CountRun(VariantFull)
	for i := 0; i < 4; i++ {
		s.ObserveCellWall(3 * time.Millisecond)
	}
	s.CountStored(2)
	snap := s.Snapshot("rid")

	out := RenderSummary(snap)
	for _, want := range []string{
		"run rid", "1 runs", "full=1",
		"900 fast-path (90.0%) in 3 strides, 100 event-mode",
		"fused pairs: 12",
		"fallbacks: 7 (hw_4lsb=5 overflow_adjacent=2)",
		"4 cells measured, 2 served from store",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if got := RenderSummary(Snapshot{Schema: SnapshotSchema}); !strings.Contains(got, "no telemetry") {
		t.Errorf("empty summary: %q", got)
	}
}

func TestLoggerModes(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, true, nil...)
	log.Info("hello", "shard", 3)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSON mode output not JSON: %v (%s)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["shard"] != float64(3) {
		t.Fatalf("JSON record: %v", rec)
	}

	buf.Reset()
	log = NewLogger(&buf, false)
	log.Info("hello", "shard", 3)
	out := buf.String()
	if !strings.Contains(out, "msg=hello") || !strings.Contains(out, "shard=3") {
		t.Fatalf("text record: %q", out)
	}
	if strings.Contains(out, "time=") {
		t.Fatalf("text record carries timestamp: %q", out)
	}
}
