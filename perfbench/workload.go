package main

import (
	"fmt"
	"runtime"

	"repro/internal/experiment"
	"repro/internal/simclock"
)

// minEras is the smallest number of control eras one run of a workload must
// span, so that the p90 era time has at least ten samples beyond it.
const minEras = 100

// benchWorkload is one benchmark input: a registered scenario and the policies run
// on it one after another.  README.md records why each was chosen.
type benchWorkload struct {
	name         string
	scenarioName string
	policies     []string
	// eraInterval, when non-zero, overrides the scenario's control-era
	// length so that one run spans at least minEras eras.
	eraInterval simclock.Duration
}

var workloads = []benchWorkload{
	{name: "paper-fig4", scenarioName: "figure4", policies: []string{"policy1", "policy2", "policy3"}},
	// megaclients' own 60 s eras give only 30 eras in its 30-min horizon;
	// 15 s eras give 120 without lengthening the run.
	{name: "mega-cohort", scenarioName: "megaclients", policies: []string{"policy2"}, eraInterval: 15 * simclock.Second},
	{name: "global-traced", scenarioName: "global-traced", policies: []string{"policy2"}},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// scenario builds the workload's scenario at the seed for a run of the given
// mode.  The scenario's EventWorkers is capped at GOMAXPROCS, which the
// determinism contract makes byte-identical.  The traced and check runs turn
// the flight recorder on wherever the engine is sharded; the recorder keeps
// sim-time only, so it leaves the simulation's output unchanged.
func (w benchWorkload) scenario(seed uint64, mode runMode) (experiment.Scenario, error) {
	sc, err := experiment.BuildScenario(w.scenarioName, seed)
	if err != nil {
		return sc, err
	}
	if w.eraInterval > 0 {
		sc.ControlInterval = w.eraInterval
	}
	if n := runtime.GOMAXPROCS(0); sc.EventWorkers > n {
		sc.EventWorkers = n
	}
	if (mode == tracedRun || mode == checkRun) && (sc.EventWorkers > 0 || sc.GSLB.Enabled()) {
		sc.FlightRecorder = true
	}
	return sc, nil
}

func (w benchWorkload) namedPolicies() ([]experiment.NamedPolicy, error) {
	out := make([]experiment.NamedPolicy, len(w.policies))
	for i, key := range w.policies {
		np, err := experiment.PolicyByKey(key)
		if err != nil {
			return nil, err
		}
		out[i] = np
	}
	return out, nil
}
