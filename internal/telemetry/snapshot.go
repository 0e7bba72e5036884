package telemetry

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// SnapshotSchema is the snapshot document version, bumped on
// incompatible field changes so stale dashboards fail loudly.
const SnapshotSchema = 1

// Snapshot is the canonical JSON telemetry document: what `pmubench
// -telemetry` writes, workers persist under dir/telemetry/, the
// coordinator's /metrics endpoint serves (merged across the fleet), and
// `pmureport -telemetry` renders. Marshaling is deterministic for fixed
// counter values — struct fields in declaration order, map keys sorted
// by encoding/json — while the values themselves are deterministic
// except where noted (wall-time histogram counts, heartbeat lag).
type Snapshot struct {
	// Schema is the document version (SnapshotSchema).
	Schema int `json:"schema"`
	// RunID ties this snapshot to a run's structured logs and results
	// store (DeriveRunID; a sweep uses its plan fingerprint).
	RunID string `json:"run_id,omitempty"`
	// Engine aggregates the per-run monitor-chain counters.
	Engine EngineStats `json:"engine"`
	// Sweep aggregates cell/reference cache behavior.
	Sweep SweepStats `json:"sweep"`
	// Fleet aggregates sweepd worker behavior; zero outside worker mode.
	Fleet FleetStats `json:"fleet"`
}

// EngineStats is the engine section of a snapshot.
type EngineStats struct {
	// Runs counts collection runs by execution variant (full / lean /
	// nop / interp).
	Runs map[string]uint64 `json:"runs"`
	// Strides / StrideInstrs count fast-path stride flushes and the
	// instructions they covered; EventInstrs counts per-instruction
	// OnRetire deliveries (all interpreter instructions plus fast-engine
	// event-mode instructions).
	Strides      uint64 `json:"strides"`
	StrideInstrs uint64 `json:"stride_instrs"`
	EventInstrs  uint64 `json:"event_instrs"`
	// FusedPairs counts decode-time superinstruction fusions, summed
	// over runs.
	FusedPairs uint64 `json:"fused_pairs"`
	// Fallbacks buckets zero headroom grants by refusing layer; the
	// buckets sum to FallbackTotal by construction (exactly one bucket
	// per zero grant), and readers re-verify the invariant.
	Fallbacks     map[string]uint64 `json:"fallbacks"`
	FallbackTotal uint64            `json:"fallback_total"`
}

// SweepStats is the sweep section of a snapshot.
type SweepStats struct {
	// CellsMeasured / CellsStored split grid cells into executed vs
	// served from the results store. CellsMeasured always equals
	// CellWallNs.Count: every measured cell is timed.
	CellsMeasured uint64 `json:"cells_measured"`
	CellsStored   uint64 `json:"cells_stored"`
	// RefsMeasured / RefsServed split reference-profile lookups into
	// collected vs served from the reference memo.
	RefsMeasured uint64 `json:"refs_measured"`
	RefsServed   uint64 `json:"refs_served"`
	// CellWallNs is the per-cell wall-time histogram. Bucket edges are
	// fixed; counts depend on host timing (the one non-deterministic
	// part of the document, alongside heartbeat lag).
	CellWallNs HistStats `json:"cell_wall_ns"`
}

// FleetStats is the per-worker (or fleet-merged) section of a snapshot.
type FleetStats struct {
	// Workers counts the worker snapshots merged into this document
	// (1 in a single worker's own snapshot).
	Workers uint64 `json:"workers"`
	// LeasesAcquired counts shard leases won; LeaseSteals the subset
	// that took over an expired or superseded predecessor (gen > 1).
	LeasesAcquired uint64 `json:"leases_acquired"`
	LeaseSteals    uint64 `json:"lease_steals"`
	// ShardsCompleted counts shards run to completion and done-marked.
	ShardsCompleted uint64 `json:"shards_completed"`
	// Heartbeats counts lease renewals; the lag fields report how far
	// behind the nominal TTL/3 cadence they fired (host scheduling
	// noise — not deterministic).
	Heartbeats        uint64 `json:"heartbeats"`
	HeartbeatLagMaxNs uint64 `json:"heartbeat_lag_max_ns"`
	HeartbeatLagSumNs uint64 `json:"heartbeat_lag_sum_ns"`
}

// histMaxBucket is the histogram's overflow bucket index: bucket i < max
// counts observations with value <= histEdge(i), the last bucket
// everything beyond the largest edge.
const histMaxBucket = 24

// histEdge returns the fixed upper bound (inclusive, in nanoseconds) of
// bucket i: 1.024µs · 2^i, spanning ~1µs to ~4.8h before overflow. The
// edges are constants of the format — histogram output is deterministic
// modulo timing, never modulo configuration.
func histEdge(i int) uint64 { return 1024 << uint(i) }

// histogram is the atomic accumulation form behind Sink.ObserveCellWall.
type histogram struct {
	counts [histMaxBucket + 1]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	// Smallest i with ns <= 1024<<i, i.e. the bit length of (ns-1)/1024
	// (values <= 1024ns land in bucket 0).
	b := 0
	if ns > 0 {
		b = bits.Len64((ns - 1) >> 10)
	}
	if b > histMaxBucket {
		b = histMaxBucket
	}
	h.counts[b].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
}

func (h *histogram) snapshot() HistStats {
	s := HistStats{
		UpperBoundsNs: make([]uint64, histMaxBucket),
		Counts:        make([]uint64, histMaxBucket+1),
	}
	for i := 0; i < histMaxBucket; i++ {
		s.UpperBoundsNs[i] = histEdge(i)
	}
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.n.Load()
	s.SumNs = h.sum.Load()
	return s
}

// HistStats is the snapshot form of a log-bucketed histogram: bucket i
// counts observations <= UpperBoundsNs[i]; the final bucket (one longer
// than the bounds) is the overflow.
type HistStats struct {
	UpperBoundsNs []uint64 `json:"upper_bounds_ns"`
	Counts        []uint64 `json:"counts"`
	Count         uint64   `json:"count"`
	SumNs         uint64   `json:"sum_ns"`
}

// merge adds o's counts into h, tolerating an empty (zero) side.
func (h HistStats) merge(o HistStats) HistStats {
	if h.Count == 0 && len(h.Counts) == 0 {
		return o
	}
	if o.Count == 0 && len(o.Counts) == 0 {
		return h
	}
	out := h
	out.Counts = append([]uint64(nil), h.Counts...)
	for i := 0; i < len(out.Counts) && i < len(o.Counts); i++ {
		out.Counts[i] += o.Counts[i]
	}
	out.Count += o.Count
	out.SumNs += o.SumNs
	return out
}

// Merge returns the sum of two snapshots — the coordinator's fleet-wide
// view over per-worker documents. Counters add, lag maxima take the max,
// and the run ID survives only when both sides agree (merging different
// runs yields an unset ID rather than a lie).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	out.Schema = SnapshotSchema
	if s.RunID != o.RunID {
		if s.RunID == "" {
			out.RunID = o.RunID
		} else if o.RunID != "" {
			out.RunID = ""
		}
	}
	out.Engine.Runs = mergeCounts(s.Engine.Runs, o.Engine.Runs)
	out.Engine.Strides += o.Engine.Strides
	out.Engine.StrideInstrs += o.Engine.StrideInstrs
	out.Engine.EventInstrs += o.Engine.EventInstrs
	out.Engine.FusedPairs += o.Engine.FusedPairs
	out.Engine.Fallbacks = mergeCounts(s.Engine.Fallbacks, o.Engine.Fallbacks)
	out.Engine.FallbackTotal += o.Engine.FallbackTotal
	out.Sweep.CellsMeasured += o.Sweep.CellsMeasured
	out.Sweep.CellsStored += o.Sweep.CellsStored
	out.Sweep.RefsMeasured += o.Sweep.RefsMeasured
	out.Sweep.RefsServed += o.Sweep.RefsServed
	out.Sweep.CellWallNs = s.Sweep.CellWallNs.merge(o.Sweep.CellWallNs)
	out.Fleet.Workers += o.Fleet.Workers
	out.Fleet.LeasesAcquired += o.Fleet.LeasesAcquired
	out.Fleet.LeaseSteals += o.Fleet.LeaseSteals
	out.Fleet.ShardsCompleted += o.Fleet.ShardsCompleted
	out.Fleet.Heartbeats += o.Fleet.Heartbeats
	if o.Fleet.HeartbeatLagMaxNs > out.Fleet.HeartbeatLagMaxNs {
		out.Fleet.HeartbeatLagMaxNs = o.Fleet.HeartbeatLagMaxNs
	}
	out.Fleet.HeartbeatLagSumNs += o.Fleet.HeartbeatLagSumNs
	return out
}

// mergeCounts sums two string-keyed counter maps.
func mergeCounts(a, b map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// Validate checks the document invariants a reader relies on: known
// schema, known fallback keys, buckets summing exactly to the total, and
// every measured cell timed exactly once.
func (s Snapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("telemetry: snapshot schema %d, want %d", s.Schema, SnapshotSchema)
	}
	var sum uint64
	for k, v := range s.Engine.Fallbacks {
		if _, err := ParseFallbackReason(k); err != nil {
			return err
		}
		sum += v
	}
	if sum != s.Engine.FallbackTotal {
		return fmt.Errorf("telemetry: fallback buckets sum to %d but fallback_total is %d",
			sum, s.Engine.FallbackTotal)
	}
	if s.Sweep.CellsMeasured != s.Sweep.CellWallNs.Count {
		return fmt.Errorf("telemetry: cells_measured is %d but cell_wall_ns counts %d cells",
			s.Sweep.CellsMeasured, s.Sweep.CellWallNs.Count)
	}
	return nil
}

// MarshalCanonical renders the snapshot as indented canonical JSON
// (struct field order plus encoding/json's sorted map keys), newline
// terminated.
func (s Snapshot) MarshalCanonical() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	return append(out, '\n'), nil
}
