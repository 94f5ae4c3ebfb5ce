package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
)

// setupReps is the number of set-ups timed on their own before the measured
// runs; every measured run adds its own set-up to the same sample.
const setupReps = 100

// envStamp identifies the machine and settings a result was measured with.
type envStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

func stamp(seed uint64) envStamp {
	return envStamp{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

// cpuModel returns the "model name" line of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is the result of one benchmark invocation.  Written with -out it is
// the result file the compare and pair modes read.
type report struct {
	Env        envStamp         `json:"env"`
	Workload   string           `json:"workload"`
	Trace      bool             `json:"trace"`
	Seconds    int              `json:"seconds"`
	Digest     string           `json:"digest"`
	Runs       int              `json:"runs"`
	RunsFailed int              `json:"runs_failed"`
	RunSamples []float64        `json:"run_samples"`
	EraSamples int              `json:"era_samples"`
	Failures   []string         `json:"failures,omitempty"`
	Claims     string           `json:"claims,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Layers     map[string]value `json:"layers,omitempty"`
}

// count records a finished run's correctness outcome: any failed check, or
// a digest other than the reference, fails the run.
func (rep *report) count(r *run, ref string, what string) {
	rep.Runs++
	fails := r.failures()
	if ref != "" && r.digest != ref {
		fails = append(fails, fmt.Sprintf("digest %s differs from the first run's %s", r.digest[:16], ref[:16]))
	}
	if len(fails) > 0 {
		rep.RunsFailed++
		for _, f := range fails {
			rep.Failures = append(rep.Failures, what+": "+f)
		}
	}
}

// setupOnly times one set-up of every policy of the workload, discarding the
// deployments.
func setupOnly(w benchWorkload, seed uint64) (setup time.Duration, newBackend []time.Duration, err error) {
	nps, err := w.namedPolicies()
	if err != nil {
		return 0, nil, err
	}
	for _, np := range nps {
		p, err := setUp(w, seed, np, plainRun)
		if err != nil {
			return 0, nil, err
		}
		setup += p.setup
		newBackend = append(newBackend, p.newBackend)
	}
	return setup, newBackend, nil
}

// bench runs the workload at the seed: set-up samples, one warm-up run that
// fixes the reference digest and reads the live heap at every era, measured
// runs for the given number of seconds, and, when traced, one traced run
// whose per-layer numbers fill report.Layers and one check run with span
// sampling on, whose digest must equal the others.
func bench(w benchWorkload, seed uint64, seconds int, traced bool) (*report, error) {
	rep := &report{Env: stamp(seed), Workload: w.name, Trace: traced, Seconds: seconds}
	var setups, newBackends []float64
	for i := 0; i < setupReps; i++ {
		s, nb, err := setupOnly(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
		for _, d := range nb {
			newBackends = append(newBackends, d.Seconds()*1e3)
		}
	}

	warm, err := runWorkload(w, seed, heapRun)
	if err != nil {
		return nil, err
	}
	rep.Digest = warm.digest
	rep.count(warm, "", "warm-up run")
	if w.name == "paper-fig4" && len(warm.failures()) == 0 {
		results := map[string]*experiment.Result{}
		for _, p := range warm.policies {
			results[p.policy] = p.result
		}
		rep.Claims = experiment.EvaluateClaims(results).String()
	}

	var measured []*run
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(measured) == 0 || time.Now().Before(deadline) {
		r, err := runWorkload(w, seed, plainRun)
		if err != nil {
			return nil, err
		}
		rep.count(r, warm.digest, fmt.Sprintf("run %d", len(measured)+1))
		measured = append(measured, r)
		setups = append(setups, r.setup().Seconds())
		for _, p := range r.policies {
			newBackends = append(newBackends, p.newBackend.Seconds()*1e3)
		}
	}
	rep.Metrics = endToEndMetrics(measured, median(setups), warm.peakLive())
	for _, r := range measured {
		rep.RunSamples = append(rep.RunSamples, r.wall().Seconds())
	}
	for _, r := range measured {
		for _, p := range r.policies {
			rep.EraSamples += len(p.clock.eras)
		}
	}

	if traced {
		tr, err := runWorkload(w, seed, tracedRun)
		if err != nil {
			return nil, err
		}
		rep.count(tr, warm.digest, "traced run")
		rep.Layers = layerMetrics(seed, tr, rep.Metrics["run_s"].Value, median(newBackends))
		chk, err := runWorkload(w, seed, checkRun)
		if err != nil {
			return nil, err
		}
		rep.count(chk, warm.digest, "check run")
	}
	return rep, nil
}

// endToEndMetrics reduces the measured runs to medians over runs.  The era
// percentiles are taken within each run, over its own eras, before the
// median: a burst of load on the host that slows a minority of the runs
// then leaves them unchanged, where it would set the tail of a pooled
// sample.
func endToEndMetrics(runs []*run, setupS float64, peakLive uint64) map[string]value {
	var wall, cpu, alloc, mallocs, reqRate, eraP50, eraP90 []float64
	for _, r := range runs {
		var c, a, m, done float64
		var eras []float64
		for _, p := range r.policies {
			c += p.cpu.Seconds()
			a += float64(p.allocBytes) / 1e6
			m += float64(p.mallocs) / 1e6
			done += float64(p.completed)
			for _, e := range p.clock.eras {
				eras = append(eras, e.Seconds()*1e3)
			}
		}
		w := r.wall().Seconds()
		wall = append(wall, w)
		cpu = append(cpu, c)
		alloc = append(alloc, a)
		mallocs = append(mallocs, m)
		reqRate = append(reqRate, done/w)
		eraP50 = append(eraP50, percentile(eras, 50))
		eraP90 = append(eraP90, percentile(eras, 90))
	}
	out := map[string]value{}
	put := func(name string, v float64) {
		d, _ := metricByName(name)
		out[name] = value{Value: v, Unit: d.unit}
	}
	put("run_s", median(wall))
	put("setup_s", setupS)
	put("sim_req_per_s", median(reqRate))
	put("era_wall_ms_p50", median(eraP50))
	put("era_wall_ms_p90", median(eraP90))
	put("cpu_s", median(cpu))
	put("alloc_mb", median(alloc))
	put("allocs_m", median(mallocs))
	put("peak_live_heap_mb", float64(peakLive)/1e6)
	return out
}
