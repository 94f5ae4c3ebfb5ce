package experiment

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/simclock"
)

func TestMegaregionScenarioShapes(t *testing.T) {
	mega, err := BuildScenario("megaregion", 42)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildScenario("megaregion-sharded", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{mega, sharded} {
		if len(sc.Regions) != 1 {
			t.Fatalf("%s should deploy one region, got %d", sc.Name, len(sc.Regions))
		}
		pool := sc.Regions[0].Region.InitialActive + sc.Regions[0].Region.InitialStandby
		if pool < 5000 {
			t.Fatalf("%s pool = %d VMs, want >= 5x10^3", sc.Name, pool)
		}
	}
	if mega.Regions[0].Region.Shards > 1 {
		t.Fatalf("megaregion is the single-shard baseline, got Shards=%d", mega.Regions[0].Region.Shards)
	}
	if sharded.Regions[0].Region.Shards != MegaregionShards {
		t.Fatalf("megaregion-sharded Shards = %d, want %d", sharded.Regions[0].Region.Shards, MegaregionShards)
	}
	if sharded.VMC.TickWorkers != MegaregionShards || sharded.EventWorkers != MegaregionShards {
		t.Fatalf("megaregion-sharded TickWorkers/EventWorkers = %d/%d, want one goroutine per shard",
			sharded.VMC.TickWorkers, sharded.EventWorkers)
	}
	// Apart from the shard split and the fan-outs, which the determinism
	// contract makes byte-neutral, the two scenarios must describe the same
	// deployment, so their results are comparable.
	m, s := mega.Regions[0], sharded.Regions[0]
	s.Region.Shards = m.Region.Shards
	if !reflect.DeepEqual(m, s) {
		t.Fatalf("megaregion variants diverge beyond the shard count:\n%+v\n%+v", m, s)
	}
	sv := sharded.VMC
	sv.TickWorkers = mega.VMC.TickWorkers
	if !reflect.DeepEqual(mega.VMC, sv) {
		t.Fatalf("megaregion variants' VMC configs diverge beyond TickWorkers:\n%+v\n%+v", mega.VMC, sv)
	}
}

// TestMegaregionDeterministicAcrossWorkerCounts is the scaled-up version of
// the runner's core guarantee: a 5x10^3-VM region — in both the single-shard
// and the 16-shard configuration — produces byte-identical results for 1, 4
// and GOMAXPROCS workers.  The horizon is shortened so the test stays
// affordable under -race; determinism does not depend on it.
func TestMegaregionDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 5x10^3-VM scenario three times")
	}
	jobs, err := Matrix{
		Scenarios: []string{"megaregion", "megaregion-sharded"},
		Policies:  []string{"policy2"},
		BaseSeed:  42,
		Horizon:   4 * simclock.Minute,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want []byte
	for _, workers := range workerCounts {
		results, err := RunParallel(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		for _, jr := range results {
			if jr.Err != nil {
				t.Fatalf("workers=%d: %s failed: %v", workers, jr.Job.Scenario.Name, jr.Err)
			}
			if jr.Result.Eras == 0 || jr.Result.SuccessRatio <= 0 {
				t.Fatalf("workers=%d: degenerate %s run: %+v", workers, jr.Job.Scenario.Name, jr.Result)
			}
		}
		got := sweepFingerprint(t, results)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d produced different bytes than workers=%d", workers, workerCounts[0])
		}
	}
}
