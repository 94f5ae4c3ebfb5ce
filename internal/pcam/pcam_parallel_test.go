package pcam

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
)

// tickFingerprint captures everything observable about one finished VMC run,
// so two runs can be compared for byte-level equivalence.
type tickFingerprint struct {
	VMCStats   Stats
	RMTTF      float64
	LastRaw    float64
	Region     cloudsim.Stats
	Shards     []cloudsim.Stats
	Predicted  map[string]float64
	VMStates   map[string]cloudsim.VMState
	QueueSizes map[string]int
}

// startOnShardedEngine installs vmc on a fresh ShardedEngine with one lane
// per region shard and the given event-loop worker count, returning the
// engine and its shard sub-engines.
func startOnShardedEngine(vmc *VMC, region *cloudsim.Region, seed uint64, workers int) (*simclock.ShardedEngine, []*simclock.Engine) {
	se := simclock.NewShardedEngine(region.NumShards(), seed, simclock.DefaultEpoch, workers)
	engines := make([]*simclock.Engine, region.NumShards())
	for s := range engines {
		engines[s] = se.Shard(s)
	}
	vmc.StartSharded(se, engines)
	return se, engines
}

// runShardedTicks drives a fixed traffic pattern through an 8-shard region
// on a ShardedEngine with the given worker count — the control tick fans out
// at that width — for ten control intervals and fingerprints the outcome.
func runShardedTicks(t *testing.T, workers int) tickFingerprint {
	t.Helper()
	region := shardedRegion(77, 8, 16, 8)
	// Pre-age a quarter of the active pool so the run includes proactive
	// rejuvenations and standby promotions, not just sampling.  The oracle
	// caps healthy predictions at OracleMaxRTTF (3600 s), so a threshold of
	// 3000 s cleanly separates the aged VMs (~2300 s at this request rate)
	// from the rest.
	for i, vm := range region.ActiveVMs() {
		if i%4 == 0 {
			vm.PreAge(0.9)
		}
	}
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{
		ElasticityEnabled: false,
		ControlInterval:   30 * simclock.Second,
		RTTFThreshold:     3000,
	})
	se, engines := startOnShardedEngine(vmc, region, 77, workers)
	const n = 6000
	for i := 0; i < n; i++ {
		at := simclock.Duration(float64(i) * 300.0 / n)
		id := uint64(i)
		shard := i % len(engines)
		engines[shard].ScheduleFunc(at, func(e *simclock.Engine) {
			vmc.SubmitShard(e, shard, &cloudsim.Request{ID: id, ServiceFactor: 1, Arrival: e.Now()})
		})
	}
	if err := se.Run(10 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	vmc.Stop()

	fp := tickFingerprint{
		VMCStats:   vmc.Stats(),
		RMTTF:      vmc.RMTTF(),
		LastRaw:    vmc.LastRawRMTTF(),
		Region:     region.Stats(),
		Shards:     region.ShardStats(),
		Predicted:  map[string]float64{},
		VMStates:   map[string]cloudsim.VMState{},
		QueueSizes: map[string]int{},
	}
	for _, vm := range region.VMs() {
		fp.Predicted[vm.ID()] = vmc.PredictedRTTF(vm.ID())
		fp.VMStates[vm.ID()] = vm.State()
		fp.QueueSizes[vm.ID()] = vm.QueueLength()
	}
	if fp.VMCStats.ControlTicks == 0 {
		t.Fatal("run executed no control ticks")
	}
	if fp.Region.Served == 0 {
		t.Fatal("run served no requests")
	}
	return fp
}

// TestControlTickParallelEquivalence is the unit-level determinism pin of the
// parallel control tick: an identical 8-shard deployment driven by identical
// traffic ends in exactly the same state — controller counters, smoothed and
// raw RMTTF, per-shard statistics, per-VM predictions, states and queues —
// whether the ShardedEngine runs its shard loops and the tick's per-shard
// phase inline or on 2 or 8 goroutines.  Run under -race this doubles as the
// cross-shard mutation audit.
func TestControlTickParallelEquivalence(t *testing.T) {
	want := runShardedTicks(t, 1)
	for _, workers := range []int{2, 8} {
		got := runShardedTicks(t, workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from the sequential run:\nsequential: %+v\nparallel:   %+v", workers, want, got)
		}
	}
	if want.VMCStats.ProactiveRejuvenations == 0 {
		t.Fatal("fixture exercised no proactive rejuvenations; the equivalence would be vacuous")
	}
}

// TestControlTickParallelPhaseEngaged verifies the tick's fan-out follows
// the ShardedEngine's worker count: the predictor observes
// Engine.InParallelPhase on the control timeline at 4 workers and not at 1.
func TestControlTickParallelPhaseEngaged(t *testing.T) {
	for _, tc := range []struct {
		workers int
		want    bool
	}{{1, false}, {4, true}} {
		region := shardedRegion(3, 4, 8, 4)
		var ctrl *simclock.Engine
		var sawParallel atomic.Bool
		pred := PredictorFunc(func(vm *cloudsim.VM, sample features.Vector) float64 {
			if ctrl.InParallelPhase() {
				sawParallel.Store(true)
			}
			return OraclePredictor{}.PredictRTTF(vm, sample)
		})
		vmc := newTestVMC(t, region, pred, Config{ElasticityEnabled: false})
		se, _ := startOnShardedEngine(vmc, region, 3, tc.workers)
		ctrl = se.Control()
		vmc.ControlTick(ctrl)
		if sawParallel.Load() != tc.want {
			t.Fatalf("workers=%d: predictor ran inside a parallel phase = %v, want %v", tc.workers, sawParallel.Load(), tc.want)
		}
	}
}
