package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// Result is the outcome of running one scenario under one policy: the raw
// time series (for regenerating the figures) plus the summary metrics used to
// assess the qualitative claims of Section VI-B.
type Result struct {
	// Scenario echoes the scenario that was run.
	Scenario Scenario
	// PolicyKey and PolicyLabel identify the policy under test.
	PolicyKey   string
	PolicyLabel string

	// Recorder holds the raw series: "rmttf", "fraction", "response_time",
	// "active_vms", "lambda", "cross_region".
	Recorder *trace.Recorder

	// RMTTFConvergence judges whether the per-region RMTTFs converged to a
	// common value (the paper's primary question).
	RMTTFConvergence stats.ConvergenceReport
	// FractionOscillation is the mean oscillation index of the f_i series
	// over the steady-state tail (stability of the workload fractions).
	FractionOscillation float64
	// FractionDirectionChanges is the mean number of direction changes of the
	// f_i series in the tail — the "many redirections of the request flow"
	// overhead the paper attributes to Policy 1 with three regions.
	FractionDirectionChanges float64

	// MeanResponseTime is the lifetime mean client response time (seconds).
	MeanResponseTime float64
	// TailResponseTime is the mean of the response-time series over the
	// steady-state tail (seconds).
	TailResponseTime float64
	// SLAViolationRatio is the fraction of completed requests slower than the
	// 1-second SLA.
	SLAViolationRatio float64
	// SuccessRatio is completed / issued requests.
	SuccessRatio float64

	// ForwardedFraction is the fraction of requests forwarded across regions.
	ForwardedFraction float64
	// GSLBRouted counts the requests the global traffic director routed to
	// each region, keyed by region name (nil when the scenario has no GSLB).
	GSLBRouted map[string]uint64
	// GSLBTransitions is the director's health-transition log, one line per
	// state change in probe order — the drain/failover/failback record.
	GSLBTransitions []string
	// Gossip is the replicated health plane's protocol and convergence
	// counters (nil unless the scenario sets GossipReplicas).
	Gossip *gossip.Stats
	// Eras is the number of completed control eras.
	Eras uint64
	// ProactiveRejuvenations, ReactiveRecoveries and Crashes aggregate the
	// dependability counters over all regions.
	ProactiveRejuvenations uint64
	ReactiveRecoveries     uint64
	Crashes                uint64
	// FinalFractions are the fractions installed at the end of the run.
	FinalFractions []float64
}

// Run executes the scenario under the given policy — through the backend
// seam — and collects the result.
func Run(sc Scenario, np NamedPolicy) (*Result, error) {
	res, _, err := RunBackend(sc, np)
	return res, err
}

// RunBackend is Run for callers that also need the finished backend: the
// post-run surfaces the summary does not carry (the span tracer and the
// flight recorder for trace export, the registry for a final scrape) stay
// reachable through it.
func RunBackend(sc Scenario, np NamedPolicy) (*Result, backend.Backend, error) {
	sc = sc.withDefaults()
	b, err := NewBackend(sc, np)
	if err != nil {
		return nil, nil, err
	}
	if err := b.Run(sc.Horizon); err != nil {
		return nil, nil, fmt.Errorf("experiment: running %s/%s: %w", sc.Name, np.Key, err)
	}
	return summarize(sc, np, b), b, nil
}

// TraceArtifacts returns the span tracer and the flight recorder of a
// finished backend, for Chrome-trace export and utilization reports.  Each
// is nil unless its plane is enabled (TraceSampleFraction > 0,
// FlightRecorder true).
func TraceArtifacts(b backend.Backend) (*tracing.Tracer, *simclock.FlightRecorder) {
	mgr := b.(*backend.Simulated).Manager()
	return mgr.Tracer(), mgr.FlightRecorder()
}

// RunAllPolicies runs the scenario under the paper's three policies — one
// worker per available CPU — and returns the results keyed by policy key.
func RunAllPolicies(sc Scenario) (map[string]*Result, error) {
	return RunPolicies(context.Background(), sc, Policies(), Options{})
}

// RunPolicies runs the scenario under each of the given policies on the
// parallel runner and returns the results keyed by policy key.  The first
// per-job error aborts the whole comparison, matching the sequential
// behaviour callers relied on.
func RunPolicies(ctx context.Context, sc Scenario, policies []NamedPolicy, opt Options) (map[string]*Result, error) {
	jobs := make([]Job, len(policies))
	for i, np := range policies {
		jobs[i] = Job{Index: i, Scenario: sc, Policy: np}
	}
	results, err := RunParallel(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	for _, jr := range results {
		if jr.Err != nil {
			return nil, jr.Err
		}
		out[jr.Job.Policy.Key] = jr.Result
	}
	return out, nil
}

// summarize extracts the summary metrics from a finished run, reading only
// the Backend interface — the recorder series, the merged workload metrics
// and the plain-data Results snapshot.
func summarize(sc Scenario, np NamedPolicy, b backend.Backend) *Result {
	rec := b.Recorder()
	met := b.Metrics()
	final := b.Results()

	res := &Result{
		Scenario:       sc,
		PolicyKey:      np.Key,
		PolicyLabel:    np.Label,
		Recorder:       rec,
		Eras:           final.Eras,
		FinalFractions: final.FinalFractions,
	}

	rmttfSet := rec.Set("rmttf")
	res.RMTTFConvergence = rmttfSet.Analyze(sc.TailFraction, sc.ConvergenceTolerance)

	fractionSet := rec.Set("fraction")
	osc, dirs := 0.0, 0.0
	if n := len(fractionSet.Series); n > 0 {
		for _, s := range fractionSet.Series {
			osc += s.OscillationIndex(sc.TailFraction)
			dirs += float64(s.DirectionChanges(sc.TailFraction))
		}
		osc /= float64(n)
		dirs /= float64(n)
	}
	res.FractionOscillation = osc
	res.FractionDirectionChanges = dirs

	res.MeanResponseTime = met.MeanResponseTime("")
	res.TailResponseTime = rec.Series("response_time", "all_clients").TailMean(sc.TailFraction)
	// SLA violations are counted on latency samples, which cohort batches do
	// not produce — so the ratio divides by the sample count, not the weighted
	// completion count (identical whenever no cohorts run).
	if samples := met.ResponseSamples(""); samples > 0 {
		res.SLAViolationRatio = float64(met.SLAViolations("")) / float64(samples)
	}
	res.SuccessRatio = met.SuccessRatio("")

	if total := final.ForwardedRequests + final.LocalRequests; total > 0 {
		res.ForwardedFraction = float64(final.ForwardedRequests) / float64(total)
	}
	if final.GSLB != nil {
		res.GSLBRouted = final.GSLB.Routed
		res.GSLBTransitions = final.GSLB.Transitions
	}
	res.Gossip = final.Gossip
	for _, s := range final.VMCStats {
		res.ProactiveRejuvenations += s.ProactiveRejuvenations
		res.ReactiveRecoveries += s.ReactiveRecoveries
	}
	for _, s := range final.RegionStats {
		res.Crashes += s.Crashes
	}
	return res
}

// Claims captures the qualitative claims of Section VI-B as booleans so that
// tests (and EXPERIMENTS.md) can state unambiguously whether the reproduction
// shows the same shape as the paper.  The formulations follow the paper's
// conclusions: Policy 2 "has been proven to show the fastest convergence and
// the highest stability", Policy 1 does not make the RMTTFs of heterogeneous
// regions converge, Policy 3 converges but can suffer from its intrinsic
// randomness, and the response time stays below the 1-second threshold.
type Claims struct {
	// Policy1DoesNotConverge: with Policy 1 the RMTTFs of heterogeneous
	// regions stabilise at different values (Figure 3) or keep oscillating
	// (Figure 4).
	Policy1DoesNotConverge bool
	// Policy2Converges: with Policy 2 the RMTTFs converge.
	Policy2Converges bool
	// Policy3Converges: with Policy 3 the RMTTFs converge.
	Policy3Converges bool
	// Policy2TightestConvergence: Policy 2 ends with the smallest
	// steady-state RMTTF spread of the three policies ("the most stable
	// results").
	Policy2TightestConvergence bool
	// Policy2AtLeastAsFastAsPolicy3: Policy 2's convergence time is no worse
	// than Policy 3's (within a 25% sampling slack — the convergence-time
	// estimate is quantised by the control-era granularity).
	Policy2AtLeastAsFastAsPolicy3 bool
	// AllPoliciesMeetSLA: the mean client response time stays below the
	// 1-second threshold under every policy.
	AllPoliciesMeetSLA bool
}

// AllHold reports whether every claim reproduced.
func (c Claims) AllHold() bool {
	return c.Policy1DoesNotConverge && c.Policy2Converges && c.Policy3Converges &&
		c.Policy2TightestConvergence && c.Policy2AtLeastAsFastAsPolicy3 && c.AllPoliciesMeetSLA
}

// String renders the claims as a checklist.
func (c Claims) String() string {
	row := func(label string, ok bool) string {
		mark := "FAIL"
		if ok {
			mark = "ok"
		}
		return fmt.Sprintf("  [%-4s] %s\n", mark, label)
	}
	var b strings.Builder
	b.WriteString(row("Policy 1 does not converge (heterogeneous regions)", c.Policy1DoesNotConverge))
	b.WriteString(row("Policy 2 converges", c.Policy2Converges))
	b.WriteString(row("Policy 3 converges", c.Policy3Converges))
	b.WriteString(row("Policy 2 shows the tightest RMTTF convergence", c.Policy2TightestConvergence))
	b.WriteString(row("Policy 2 converges at least as fast as Policy 3", c.Policy2AtLeastAsFastAsPolicy3))
	b.WriteString(row("mean response time below the 1 s SLA for all policies", c.AllPoliciesMeetSLA))
	return b.String()
}

// EvaluateClaims derives the Section VI-B claims from the per-policy results
// of one scenario.
func EvaluateClaims(results map[string]*Result) Claims {
	var c Claims
	p1, ok1 := results["policy1"]
	p2, ok2 := results["policy2"]
	p3, ok3 := results["policy3"]
	if !ok1 || !ok2 || !ok3 {
		return c
	}
	c.Policy1DoesNotConverge = !p1.RMTTFConvergence.Converged
	c.Policy2Converges = p2.RMTTFConvergence.Converged
	c.Policy3Converges = p3.RMTTFConvergence.Converged
	c.Policy2TightestConvergence = p2.RMTTFConvergence.RelativeSpread <= p1.RMTTFConvergence.RelativeSpread &&
		p2.RMTTFConvergence.RelativeSpread <= p3.RMTTFConvergence.RelativeSpread
	c.Policy2AtLeastAsFastAsPolicy3 = p2.RMTTFConvergence.Converged &&
		p2.RMTTFConvergence.ConvergenceTime <= 1.25*p3.RMTTFConvergence.ConvergenceTime
	c.AllPoliciesMeetSLA = p1.MeanResponseTime < workload.SLAThresholdSeconds &&
		p2.MeanResponseTime < workload.SLAThresholdSeconds &&
		p3.MeanResponseTime < workload.SLAThresholdSeconds
	return c
}

// SummaryTable renders a per-policy comparison table for one scenario.
func SummaryTable(results map[string]*Result) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %9s %11s %12s %10s %10s %8s %8s\n",
		"policy", "converged", "spread", "convTime", "fOscillation", "meanRT(s)", "slaViol", "rejuv", "crashes")
	for _, k := range keys {
		r := results[k]
		conv := "no"
		if r.RMTTFConvergence.Converged {
			conv = "yes"
		}
		convTime := "never"
		if r.RMTTFConvergence.Converged {
			if math.IsInf(r.RMTTFConvergence.ConvergenceTime, 1) {
				convTime = "n/a"
			} else {
				convTime = fmt.Sprintf("%.0fs", r.RMTTFConvergence.ConvergenceTime)
			}
		}
		fmt.Fprintf(&b, "%-10s %9s %9.3f %11s %12.4f %10.3f %10.4f %8d %8d\n",
			k, conv, r.RMTTFConvergence.RelativeSpread, convTime,
			r.FractionOscillation, r.MeanResponseTime, r.SLAViolationRatio,
			r.ProactiveRejuvenations, r.Crashes)
	}
	return b.String()
}

// FigureReport renders, for one result, the ASCII versions of the three rows
// of the paper's figures: RMTTF per region, workload fraction per region, and
// the client response time.
func FigureReport(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.Scenario.Name, r.PolicyLabel)
	b.WriteString(trace.ASCIIPlot(r.Recorder.Set("rmttf"), trace.PlotOptions{
		Title: "RMTTF per region (s)", Height: 12, Width: 72, YLabel: "seconds"}))
	b.WriteString(trace.ASCIIPlot(r.Recorder.Set("fraction"), trace.PlotOptions{
		Title: "workload fraction f_i per region", Height: 12, Width: 72, YLabel: "fraction"}))
	b.WriteString(trace.ASCIIPlot(r.Recorder.Set("response_time"), trace.PlotOptions{
		Title: "client response time (s)", Height: 10, Width: 72, YLabel: "seconds"}))
	fmt.Fprintf(&b, "summary: converged=%v spread=%.3f fractionOsc=%.4f meanRT=%.3fs slaViol=%.4f successRatio=%.4f\n",
		r.RMTTFConvergence.Converged, r.RMTTFConvergence.RelativeSpread,
		r.FractionOscillation, r.MeanResponseTime, r.SLAViolationRatio, r.SuccessRatio)
	return b.String()
}

// Interface assertion helpers for the core policies used in reports.
var _ core.Policy = core.SensibleRouting{}
