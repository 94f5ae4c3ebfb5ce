package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// The control tick's per-shard monitor/analyze phase fans out at the event
// loop's width (ShardedEngine.Workers), so the tests below vary EventWorkers
// on multi-shard deployments, where that phase genuinely runs through
// Engine.ParallelPhase.  The figure regions are single-shard; their goldens
// are replayed at the fanned-out widths by TestParallelTickReproducesGoldens.

// TestFigureShardedParallelEquivalence drives the parallel phase through the
// richest control-tick paths the repo has: the figure4 deployment (three
// heterogeneous regions, elasticity on, staggered rejuvenation waves, the
// leader's closed control loop) with every region split across 5 shards —
// more shards than the fixed fan-out of 4, so one goroutine runs several
// shards' phases, which the 3-shard figure4-eventloop never does.  The run
// must be byte-identical (full summary plus the SHA-256 of every raw series)
// at every EventWorkers count: a cross-shard write, a misordered merge or a
// schedule-during-phase violation in the elasticity/standby-promotion
// interplay shows up as a byte difference (or a panic).
func TestFigureShardedParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure4 simulation once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		sc, err := BuildScenario("figure4", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = goldenHorizon
		for i := range sc.Regions {
			sc.Regions[i].Region.Shards = 5
		}
		sc.EventWorkers = workers
		res, err := Run(sc, np)
		if err != nil {
			t.Fatalf("EventWorkers=%d: %v", workers, err)
		}
		return eventLoopFingerprint(t, res)
	}
	counts := eventLoopWorkerCounts()
	ref := run(counts[0])
	for _, workers := range counts[1:] {
		if got := run(workers); !bytes.Equal(got, ref) {
			t.Fatalf("5-shard figure4 at EventWorkers=%d diverged from EventWorkers=%d\n--- got ---\n%s\n--- want ---\n%s",
				workers, counts[0], got, ref)
		}
	}
}

// TestShardedTickWorkersEquivalence is the multi-shard half of the contract:
// the 16-shard megaregion produces byte-identical raw series and identical
// per-shard statistics whether the control tick's per-shard phase runs
// inline or fanned out across goroutines.  Under -race with GOMAXPROCS > 1
// this is also the mutation audit of the parallel phase: any cross-shard
// write would trip the detector.
func TestShardedTickWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 5x10^3-VM scenario once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	counts := eventLoopWorkerCounts()
	var wantCSV []byte
	var wantStats map[string][]cloudsim.Stats
	for _, workers := range counts {
		sc, err := BuildScenario("megaregion-sharded", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 4 * simclock.Minute
		sc.EventWorkers = workers
		mgr, err := NewManager(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Run(sc.Horizon); err != nil {
			t.Fatalf("EventWorkers=%d: %v", workers, err)
		}
		var csv bytes.Buffer
		if err := mgr.Recorder().WriteAllCSV(&csv); err != nil {
			t.Fatal(err)
		}
		stats := mgr.ShardStats()
		if len(stats["megaregion"]) != MegaregionShards {
			t.Fatalf("EventWorkers=%d: %d shard stats, want %d", workers, len(stats["megaregion"]), MegaregionShards)
		}
		if wantCSV == nil {
			wantCSV, wantStats = csv.Bytes(), stats
			continue
		}
		if !bytes.Equal(csv.Bytes(), wantCSV) {
			t.Fatalf("EventWorkers=%d produced different series bytes than EventWorkers=%d", workers, counts[0])
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("EventWorkers=%d produced different ShardStats than EventWorkers=%d:\n%+v\n%+v", workers, counts[0], stats, wantStats)
		}
	}
}
