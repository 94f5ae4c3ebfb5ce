package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// policyRun is one simulation: one policy of a workload, from set-up to the
// end of Backend.Run.
type policyRun struct {
	policy     string
	scenario   experiment.Scenario
	sim        *backend.Simulated
	clock      *eraClock
	setup      time.Duration // BuildScenario + NewBackend
	newBackend time.Duration // NewBackend alone
	wall       time.Duration // Backend.Run
	cpu        time.Duration // user+sys CPU over Backend.Run
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	gcCPU      float64 // GC CPU seconds over Backend.Run (runtime/metrics estimate)
	totalCPU   float64 // all CPU seconds over Backend.Run (same source)
	completed  uint64  // batch-weighted completions
	failures   []string
	result     *experiment.Result // the fields EvaluateClaims reads
	ownTraces  bool               // the workload's scenario samples spans itself
}

// run is one run of a workload: its policies one after another.
type run struct {
	policies []*policyRun
	digest   string
}

func (r *run) setup() time.Duration {
	var d time.Duration
	for _, p := range r.policies {
		d += p.setup
	}
	return d
}

func (r *run) wall() time.Duration {
	var d time.Duration
	for _, p := range r.policies {
		d += p.wall
	}
	return d
}

func (r *run) failures() []string {
	var out []string
	for _, p := range r.policies {
		for _, f := range p.failures {
			out = append(out, p.policy+": "+f)
		}
	}
	return out
}

// runMode selects what a run measures besides its wall time.
type runMode int

const (
	plainRun  runMode = iota
	heapRun           // collect garbage at every era to read the exact live heap
	tracedRun         // flight recorder on, queue depth sampled at every era
	checkRun          // flight recorder and span sampling on; only its digest is used
)

// checkTraceFraction is the span-sampling fraction of the check run on a
// scenario that samples no spans of its own: enough traces to exercise the
// span layer, few enough to keep the run's heap small.
const checkTraceFraction = 0.001

// runWorkload runs every policy of the workload once at the seed.
func runWorkload(w benchWorkload, seed uint64, mode runMode) (*run, error) {
	nps, err := w.namedPolicies()
	if err != nil {
		return nil, err
	}
	r := &run{}
	h := sha256.New()
	for _, np := range nps {
		p, err := runPolicy(w, seed, np, mode)
		if err != nil {
			return nil, err
		}
		writeDigest(h, p)
		r.policies = append(r.policies, p)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// readCPUClasses reads the runtime's GC and total CPU-time estimates.
func readCPUClasses() []metrics.Sample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setUp builds one policy's deployment of the workload, timing
// BuildScenario + NewBackend.
func setUp(w benchWorkload, seed uint64, np experiment.NamedPolicy, mode runMode) (*policyRun, error) {
	p := &policyRun{policy: np.Key, clock: newEraClock()}
	runtime.GC()

	t0 := time.Now()
	sc, err := w.scenario(seed, mode)
	if err != nil {
		return nil, err
	}
	p.ownTraces = sc.TraceSampleFraction > 0
	if mode == checkRun && !p.ownTraces {
		sc.TraceSampleFraction = checkTraceFraction
	}
	wrapped := experiment.NamedPolicy{Key: np.Key, Label: np.Label, Policy: &clockedPolicy{inner: np.Policy, clock: p.clock}}
	t1 := time.Now()
	b, err := experiment.NewBackend(sc, wrapped)
	if err != nil {
		return nil, err
	}
	p.newBackend = time.Since(t1)
	p.setup = time.Since(t0)
	sim, ok := b.(*backend.Simulated)
	if !ok {
		return nil, fmt.Errorf("workload %s: backend is not the simulator", w.name)
	}
	p.scenario, p.sim = sc, sim
	p.clock.heap = mode == heapRun
	if mode == tracedRun {
		p.clock.depth = queueDepth(sim.Manager())
	}
	return p, nil
}

// runPolicy sets up and runs one simulation.  Only set-up errors are
// returned; a failed run is recorded in failures and counted.
func runPolicy(w benchWorkload, seed uint64, np experiment.NamedPolicy, mode runMode) (*policyRun, error) {
	p, err := setUp(w, seed, np, mode)
	if err != nil {
		return nil, err
	}
	sc := p.scenario

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPUClasses()
	c0 := cpuTime()
	start := time.Now()
	p.clock.start(start)
	runErr := p.sim.Run(sc.Horizon)
	p.wall = time.Since(start)
	p.cpu = cpuTime() - c0
	cpu1 := readCPUClasses()
	p.gcCPU = cpu1[0].Value.Float64() - cpu0[0].Value.Float64()
	p.totalCPU = cpu1[1].Value.Float64() - cpu0[1].Value.Float64()
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	if runErr != nil {
		p.failures = append(p.failures, fmt.Sprintf("Run: %v", runErr))
		return p, nil
	}
	p.check()
	if tr := p.sim.Manager().Tracer(); mode == checkRun && (tr == nil || tr.Len() == 0) {
		p.failures = append(p.failures, "check run sampled no request spans")
	}
	return p, nil
}

// check applies the per-run correctness checks.
func (p *policyRun) check() {
	res := p.sim.Results()
	met := p.sim.Metrics()
	p.completed = met.Completed("")
	if got := uint64(len(p.clock.eras)); got != res.Eras {
		p.failures = append(p.failures, fmt.Sprintf("policy wrapper saw %d eras, Results().Eras is %d", got, res.Eras))
	}
	if res.Eras < minEras {
		p.failures = append(p.failures, fmt.Sprintf("%d eras, fewer than %d", res.Eras, minEras))
	}
	if iss, done, drop := met.Issued(""), met.Completed(""), met.Dropped(""); done+drop > iss {
		p.failures = append(p.failures, fmt.Sprintf("completed %d + dropped %d > issued %d", done, drop, iss))
	}
	for _, s := range res.RegionStats {
		if s.Served == 0 {
			p.failures = append(p.failures, fmt.Sprintf("region %s completed no requests", s.Region))
		}
	}
	if rt := met.MeanResponseTime(""); !(rt < workload.SLAThresholdSeconds) {
		p.failures = append(p.failures, fmt.Sprintf("mean response time %.3fs not below the %.0fs SLA", rt, workload.SLAThresholdSeconds))
	}
	p.result = &experiment.Result{
		RMTTFConvergence: p.sim.Recorder().Set("rmttf").Analyze(p.scenario.TailFraction, p.scenario.ConvergenceTolerance),
		MeanResponseTime: met.MeanResponseTime(""),
	}
}

// writeDigest folds one simulation's output into the run digest: the
// recorder CSV plus the summary counters.
func writeDigest(h hash.Hash, p *policyRun) {
	fmt.Fprintf(h, "policy=%s\n", p.policy)
	if p.sim == nil {
		return
	}
	if err := p.sim.Recorder().WriteAllCSV(h); err != nil {
		fmt.Fprintf(h, "csv error: %v\n", err)
	}
	res := p.sim.Results()
	met := p.sim.Metrics()
	fmt.Fprintf(h, "issued=%d completed=%d dropped=%d timeouts=%d samples=%d meanrt=%x\n",
		met.Issued(""), met.Completed(""), met.Dropped(""), met.Timeouts(""), met.ResponseSamples(""), met.MeanResponseTime(""))
	fmt.Fprintf(h, "eras=%d forwarded=%d local=%d control=%d fractions=%x\n",
		res.Eras, res.ForwardedRequests, res.LocalRequests, res.ControlMessages, res.FinalFractions)
	for _, s := range res.RegionStats {
		fmt.Fprintf(h, "region=%s vms=%d served=%d dropped=%d crashes=%d rejuvenations=%d\n",
			s.Region, s.VMs, s.Served, s.Dropped, s.Crashes, s.Rejuvenations)
	}
	names := make([]string, 0, len(res.VMCStats))
	for n := range res.VMCStats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "vmc=%s %+v\n", n, res.VMCStats[n])
	}
	if g := res.GSLB; g != nil {
		regions := make([]string, 0, len(g.Routed))
		for r := range g.Routed {
			regions = append(regions, r)
		}
		sort.Strings(regions)
		for _, r := range regions {
			fmt.Fprintf(h, "routed %s=%d\n", r, g.Routed[r])
		}
		fmt.Fprintf(h, "probes=%d states=%v\n", g.Probes, g.States)
		for _, t := range g.Transitions {
			fmt.Fprintln(h, t)
		}
	}
	// Spans sampled only by the check run are not part of the workload's
	// output, so their count stays out of the digest it is compared by.
	if tr := p.sim.Manager().Tracer(); tr != nil && p.ownTraces {
		fmt.Fprintf(h, "traces=%d\n", tr.Len())
	}
}

// peakLive returns the largest live heap any policy's clock recorded.
func (r *run) peakLive() uint64 {
	var v uint64
	for _, p := range r.policies {
		v = max(v, p.clock.peakLive)
	}
	return v
}
