package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// The event-loop suite: every deployment runs on the sharded event loop (one
// sub-engine per region shard, cross-shard mailboxes, lockstep epochs), and
// its output must be byte-identical across every EventWorkers value and
// every GOMAXPROCS.  The figure goldens pin the bytes themselves.

// eventLoopWorkerCounts lists the EventWorkers values every equivalence test
// runs: 0 (normalised to the inline run), inline (1), a fixed fan-out (4)
// and whatever the host offers.
func eventLoopWorkerCounts() []int {
	counts := []int{0, 1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// eventLoopFingerprint renders a Result into the byte-pinned golden summary.
func eventLoopFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	g, err := goldenFromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestEventLoopSmoke runs a short figure4 on the sharded event loop and
// checks the deployment actually behaves like a deployment: requests are
// served, control eras complete and the SLA holds.  It is the cheap
// always-on canary for the parallel event loop (the equivalence and golden
// tests below are skipped in -short mode).
func TestEventLoopSmoke(t *testing.T) {
	sc, err := BuildScenario("figure4-eventloop", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 5 * simclock.Minute
	sc.EventWorkers = 2
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	mgr := res
	if mgr.Eras == 0 {
		t.Fatal("no control eras completed on the event loop")
	}
	if res.SuccessRatio < 0.5 {
		t.Fatalf("success ratio %.3f on the event loop, want >= 0.5", res.SuccessRatio)
	}
	if res.MeanResponseTime <= 0 {
		t.Fatalf("mean response time %v, want > 0", res.MeanResponseTime)
	}
}

// TestEventLoopWorkersEquivalence is the event-loop determinism workhorse:
// the paper's figure3 and figure4 deployments and the 3-shard
// figure4-eventloop — cross-region forwarding, shard hops, standby
// promotions and reactive recoveries all crossing shards through mailboxes —
// must produce byte-identical output (full summary plus the SHA-256 of every
// raw series) at EventWorkers 0, 1, 4 and GOMAXPROCS.  The CI
// multicore-determinism job replays it with GOMAXPROCS=4 under -race, where
// EventWorkers > 1 genuinely runs the shard loops on distinct cores.
func TestEventLoopWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure simulations once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	counts := eventLoopWorkerCounts()
	for _, name := range []string{"figure3", "figure4", "figure4-eventloop"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(workers int) []byte {
				sc, err := BuildScenario(name, 42)
				if err != nil {
					t.Fatal(err)
				}
				sc.Horizon = goldenHorizon
				sc.EventWorkers = workers
				res, err := Run(sc, np)
				if err != nil {
					t.Fatal(err)
				}
				return eventLoopFingerprint(t, res)
			}
			ref := run(counts[0])
			for _, workers := range counts[1:] {
				if got := run(workers); !bytes.Equal(got, ref) {
					t.Fatalf("EventWorkers=%d diverged from EventWorkers=%d\n--- got ---\n%s\n--- want ---\n%s", workers, counts[0], got, ref)
				}
			}
		})
	}
}

// TestEventLoopRunTwiceDeterministic reruns the same event-loop
// configuration in one process and demands identical bytes — the guard
// against hidden shared state (package-level caches, map iteration, pointer
// identities) leaking into results.
func TestEventLoopRunTwiceDeterministic(t *testing.T) {
	np, err := PolicyByKey("policy1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		sc, err := BuildScenario("figure4-eventloop", 7)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 5 * simclock.Minute
		sc.EventWorkers = runtime.GOMAXPROCS(0)
		res, err := Run(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		return eventLoopFingerprint(t, res)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical event-loop runs diverged\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestMegaregionEventLoopEquivalence pins the 16-shard megaregion — the
// scale configuration the event loop exists for — on a shortened horizon
// (the full scenario is benchmark territory): EventWorkers 1 and 16, and
// with them the control tick's inline and fanned-out per-shard phase, must
// produce the same summary bytes and the same per-shard statistics.  Under
// -race with GOMAXPROCS > 1 this is also the mutation audit of the tick's
// parallel phase: any cross-shard write would trip the detector.
func TestMegaregionEventLoopEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5x10^3-VM region once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	var refStats map[string][]cloudsim.Stats
	for _, workers := range []int{1, MegaregionShards} {
		sc, err := BuildScenario("megaregion-sharded", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 5 * simclock.Minute
		sc.EventWorkers = workers
		res, b, err := RunBackend(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		got, stats := eventLoopFingerprint(t, res), b.Results().ShardStats
		if len(stats["megaregion"]) != MegaregionShards {
			t.Fatalf("EventWorkers=%d: %d shard stats, want %d", workers, len(stats["megaregion"]), MegaregionShards)
		}
		if ref == nil {
			ref, refStats = got, stats
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("megaregion-sharded EventWorkers=%d diverged from EventWorkers=1", workers)
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("megaregion-sharded EventWorkers=%d produced different ShardStats than EventWorkers=1:\n%+v\n%+v", workers, stats, refStats)
		}
	}
}
