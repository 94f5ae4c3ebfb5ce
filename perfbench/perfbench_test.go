package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/simclock"
)

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, name)
			}
			if !unit.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: better is %q", d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// repository's benchmark runner reads, in step with the metric catalogue
// and workload list here.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{2, 7}, 0.75, 4.5, 8.25},
		{[]float64{10, 1, 7, 3, 8}, 2, 7, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
		if got, want := iqr(c.xs), c.q3-c.q1; got != want {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("percentile and median of no values should be NaN")
	}
}

func TestJudge(t *testing.T) {
	runS, _ := metricByName("run_s")
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name    string
		change  []float64
		claimed bool
		want    verdict
	}{
		{"same", base, false, verdictOK},
		{"within bound", scale(base, 1+runS.bound/2), false, verdictOK},
		{"beyond bound", scale(base, 1+2*runS.bound), false, verdictRegressed},
		{"claimed and won", scale(base, 0.8), true, verdictImproved},
		{"claimed, too small", scale(base, 0.999), true, verdictNotMet},
		{"spread wider than bound", []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, false, verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(runS, base, c.change, c.claimed); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameMachineGuard(t *testing.T) {
	a := &report{Env: envStamp{CPUModel: "cpu A", NumCPU: 2}}
	b := &report{Env: envStamp{CPUModel: "cpu A", NumCPU: 2}}
	if err := checkSameMachine([]*report{a, b}); err != nil {
		t.Fatal(err)
	}
	for _, other := range []envStamp{{CPUModel: "cpu B", NumCPU: 2}, {CPUModel: "cpu A", NumCPU: 4}} {
		if err := checkSameMachine([]*report{a, {Env: other}}); err == nil {
			t.Errorf("results from %+v and %+v were not refused", a.Env, other)
		}
	}
}

// digest runs the scenario under the policy and returns the run digest.
func digest(t *testing.T, sc experiment.Scenario, np experiment.NamedPolicy) string {
	t.Helper()
	b, err := experiment.NewBackend(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(sc.Horizon); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeDigest(h, &policyRun{policy: np.Key, sim: b.(*backend.Simulated)})
	return hex.EncodeToString(h.Sum(nil))
}

// TestWrapperKeepsDigest checks that the era-clock wrapper leaves the
// simulation's bytes alone for Policy 3, as registered and with the jitter
// stream that makes Exploration stateful, including when one wrapper is
// reused for a second deployment.
func TestWrapperKeepsDigest(t *testing.T) {
	sc, err := experiment.BuildScenario("figure4", 7)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 20 * simclock.Minute
	policy3, err := experiment.PolicyByKey("policy3")
	if err != nil {
		t.Fatal(err)
	}
	jittered := experiment.NamedPolicy{Key: "policy3-jitter", Policy: &core.Exploration{K: 1, Jitter: 0.2}}
	for _, np := range []experiment.NamedPolicy{policy3, jittered} {
		want := digest(t, sc, np)
		clock := newEraClock()
		wrapped := experiment.NamedPolicy{Key: np.Key, Label: np.Label, Policy: &clockedPolicy{inner: np.Policy, clock: clock}}
		for i := 0; i < 2; i++ {
			if got := digest(t, sc, wrapped); got != want {
				t.Fatalf("%s, deployment %d: wrapped digest %s, unwrapped %s", np.Key, i+1, got, want)
			}
		}
		if len(clock.eras) != 2*20 {
			t.Errorf("%s: clock saw %d eras over two 20-era runs", np.Key, len(clock.eras))
		}
	}
}

// TestEventWorkersCapKeepsDigest checks that capping EventWorkers at
// GOMAXPROCS, as every benchmark run does, gives the scenario's own bytes.
func TestEventWorkersCapKeepsDigest(t *testing.T) {
	w, err := workloadByName("mega-cohort")
	if err != nil {
		t.Fatal(err)
	}
	own, err := experiment.BuildScenario(w.scenarioName, 3)
	if err != nil {
		t.Fatal(err)
	}
	own.ControlInterval = w.eraInterval
	own.Horizon = 2 * simclock.Minute
	capped, err := w.scenario(3, plainRun)
	if err != nil {
		t.Fatal(err)
	}
	capped.Horizon = own.Horizon
	single := capped
	single.EventWorkers = 1 // the tightest cap, whatever GOMAXPROCS is here
	np, err := experiment.PolicyByKey(w.policies[0])
	if err != nil {
		t.Fatal(err)
	}
	want := digest(t, own, np)
	for _, sc := range []experiment.Scenario{capped, single} {
		if got := digest(t, sc, np); got != want {
			t.Fatalf("digest with %d event workers %s, with the scenario's %d %s", sc.EventWorkers, got, own.EventWorkers, want)
		}
	}
}

// writeSides writes result files for the given workloads at seeds 1..seeds
// into a parent and a change directory; every change metric reads 0.7 times
// the parent's.
func writeSides(t *testing.T, names []string, seeds uint64) (parent, change string) {
	t.Helper()
	parent, change = t.TempDir(), t.TempDir()
	for _, name := range names {
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, side := range []struct {
				dir   string
				scale float64
			}{{parent, 1}, {change, 0.7}} {
				ms := map[string]value{}
				for _, d := range endToEnd {
					ms[d.name] = value{Value: float64(100+seed) * side.scale, Unit: d.unit}
				}
				rep := &report{Env: envStamp{CPUModel: "cpu", NumCPU: 2, Seed: seed}, Workload: name, Runs: 3, Metrics: ms}
				if err := writeReport(filepath.Join(side.dir, fmt.Sprintf("%s-%d.json", name, seed)), rep); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return parent, change
}

func TestCompareDirsPairsBySeed(t *testing.T) {
	all := make([]string, len(workloads))
	for i, w := range workloads {
		all[i] = w.name
	}
	parent, change := writeSides(t, all, minPairs)
	rows, err := compareDirs(parent, change, []string{"global-traced:run_s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads)*len(endToEnd) {
		t.Fatalf("%d rows, want one per workload and end-to-end metric", len(rows))
	}
	for _, r := range rows {
		want := verdictOK // every metric reads lower on the change
		switch {
		case r.metric == "run_s" && r.workload == "global-traced":
			want = verdictImproved
		case r.metric == "sim_req_per_s":
			want = verdictRegressed // higher is better
		}
		if r.verdict != want || len(r.parent) != minPairs {
			t.Errorf("%s on %s: verdict %s over %d pairs, want %s over %d", r.metric, r.workload, r.verdict, len(r.parent), want, minPairs)
		}
	}
	if _, err := compareDirs(parent, change, []string{"no-such-workload:run_s"}); err == nil {
		t.Error("a claim on a workload that is not compared was accepted")
	}

	// A failed run on either side refuses the comparison.
	bad := filepath.Join(change, "paper-fig4-3.json")
	rep, err := readReport(bad)
	if err != nil {
		t.Fatal(err)
	}
	rep.RunsFailed = 1
	if err := writeReport(bad, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := compareDirs(parent, change, nil); err == nil {
		t.Error("a change with a failed run was compared")
	}

	// Every workload needs minPairs seeds on both sides.
	parent, change = writeSides(t, all, minPairs-1)
	if _, err := compareDirs(parent, change, nil); err == nil {
		t.Errorf("a comparison over %d pairs was accepted", minPairs-1)
	}
	parent, change = writeSides(t, all[1:], minPairs)
	if _, err := compareDirs(parent, change, nil); err == nil {
		t.Errorf("a comparison without %s was accepted", all[0])
	}
}
