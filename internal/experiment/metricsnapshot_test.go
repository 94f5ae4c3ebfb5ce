package experiment

import (
	"strings"
	"testing"

	"repro/internal/simclock"
)

// The registry snapshot contract: instruments are written only at control-era
// barriers, from already-merged state, so the Prometheus text exposition is
// byte-identical for any worker count — the metrics plane inherits the
// engine's determinism instead of weakening it.

// registryText runs one scenario through the backend seam and returns the
// final exposition bytes.
func registryText(t *testing.T, name string, eventWorkers int) string {
	t.Helper()
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(name, 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 10 * simclock.Minute
	sc.EventWorkers = eventWorkers
	b, err := NewBackend(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(sc.Horizon); err != nil {
		t.Fatal(err)
	}
	return b.Registry().Text()
}

// TestRegistrySnapshotDeterminism replays a gossip GSLB deployment at
// EventWorkers 0, 1, 4 and GOMAXPROCS and requires identical exposition
// bytes — any divergence would mean an instrument was written off the
// barrier or from unmerged per-shard state.
func TestRegistrySnapshotDeterminism(t *testing.T) {
	ref := registryText(t, "global-gossip", 0)
	if ref == "" {
		t.Fatal("empty exposition")
	}
	for _, workers := range eventLoopWorkerCounts()[1:] {
		if got := registryText(t, "global-gossip", workers); got != ref {
			t.Fatalf("EventWorkers=%d exposition diverged from EventWorkers=0\n--- got ---\n%.3000s\n--- want ---\n%.3000s", workers, got, ref)
		}
	}
}

// TestRegistryCoversAcceptanceFamilies: a gossip deployment's exposition must
// carry the family groups the metrics plane promises — region health and
// routed counts, gossip convergence, and the workload latency histogram with
// its +Inf bucket.
func TestRegistryCoversAcceptanceFamilies(t *testing.T) {
	text := registryText(t, "global-gossip", 1)
	for _, want := range []string{
		"# TYPE gslb_region_health gauge",
		"# TYPE gslb_routed_requests_total counter",
		"# TYPE gossip_convergence_max_divergence gauge",
		"# TYPE gossip_rounds_total counter",
		"# TYPE workload_response_time_seconds histogram",
		`workload_response_time_seconds_bucket{le="+Inf"}`,
		"workload_response_time_seconds_count",
		"# TYPE acm_rmttf_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q\n%.3000s", want, text)
		}
	}
}
