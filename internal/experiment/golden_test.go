package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/simclock"
)

// The golden regression suite byte-pins the summary metrics of the paper's
// figure scenarios under every policy.  It exists so that refactors of the
// simulation core can prove they change nothing: any behavioural drift —
// down to a single RNG draw — shows up as a byte difference in the summary
// or in the hash of the raw series.
//
// Regenerate with:
//
//	go test ./internal/experiment -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenHorizon keeps the pinned runs short enough for CI while still passing
// through ramp-up, several control eras, rejuvenations and steady state.
const goldenHorizon = 30 * simclock.Minute

// goldenSummary is the byte-pinned view of a Result.  Floats are formatted
// with strconv 'g' / full precision instead of being stored as JSON numbers:
// the encoding is exact (round-trips the bit pattern), stable across Go
// versions, and representable for ±Inf (ConvergenceTime is +Inf when a policy
// never converges).
type goldenSummary struct {
	Scenario  string `json:"scenario"`
	PolicyKey string `json:"policy"`
	Seed      uint64 `json:"seed"`

	Eras                     uint64   `json:"eras"`
	Converged                bool     `json:"converged"`
	RelativeSpread           string   `json:"relativeSpread"`
	ConvergenceTime          string   `json:"convergenceTime"`
	FractionOscillation      string   `json:"fractionOscillation"`
	FractionDirectionChanges string   `json:"fractionDirectionChanges"`
	MeanResponseTime         string   `json:"meanResponseTime"`
	TailResponseTime         string   `json:"tailResponseTime"`
	SLAViolationRatio        string   `json:"slaViolationRatio"`
	SuccessRatio             string   `json:"successRatio"`
	ForwardedFraction        string   `json:"forwardedFraction"`
	ProactiveRejuvenations   uint64   `json:"proactiveRejuvenations"`
	ReactiveRecoveries       uint64   `json:"reactiveRecoveries"`
	Crashes                  uint64   `json:"crashes"`
	FinalFractions           []string `json:"finalFractions"`

	// GSLBRouted and GSLBTransitions pin the global traffic director's
	// observable behaviour: how many requests each region received from the
	// director, and the exact health-state transition log (drain, failover,
	// failback) with control-timeline timestamps.  Both are absent for
	// scenarios without a director, so pre-GSLB goldens are unchanged.
	GSLBRouted      map[string]uint64 `json:"gslbRouted,omitempty"`
	GSLBTransitions []string          `json:"gslbTransitions,omitempty"`

	// Gossip pins the replicated health plane's protocol and convergence
	// counters (message conservation, converged-update count, mean
	// propagation lag).  Absent without GossipReplicas, so central-director
	// goldens are unchanged.
	Gossip *goldenGossip `json:"gossip,omitempty"`

	// SeriesSHA256 hashes every recorded raw series (the full CSV dump), so
	// the golden pins not just the summary but the entire observable run.
	SeriesSHA256 string `json:"seriesSHA256"`
}

// goldenGossip is the byte-pinned view of gossip.Stats.
type goldenGossip struct {
	Replicas      int    `json:"replicas"`
	Rounds        uint64 `json:"rounds"`
	Sent          uint64 `json:"sent"`
	Delivered     uint64 `json:"delivered"`
	Dropped       uint64 `json:"dropped"`
	Converged     int    `json:"converged"`
	Pending       int    `json:"pending"`
	MeanLag       string `json:"meanLagSeconds"`
	MaxDivergence uint64 `json:"maxDivergence"`
}

// gf formats a float64 exactly (shortest representation that round-trips).
func gf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func goldenFromResult(r *Result) (goldenSummary, error) {
	var csv bytes.Buffer
	if err := r.Recorder.WriteAllCSV(&csv); err != nil {
		return goldenSummary{}, fmt.Errorf("serialising recorder: %w", err)
	}
	sum := sha256.Sum256(csv.Bytes())
	g := goldenSummary{
		Scenario:                 r.Scenario.Name,
		PolicyKey:                r.PolicyKey,
		Seed:                     r.Scenario.Seed,
		Eras:                     r.Eras,
		Converged:                r.RMTTFConvergence.Converged,
		RelativeSpread:           gf(r.RMTTFConvergence.RelativeSpread),
		ConvergenceTime:          gf(r.RMTTFConvergence.ConvergenceTime),
		FractionOscillation:      gf(r.FractionOscillation),
		FractionDirectionChanges: gf(r.FractionDirectionChanges),
		MeanResponseTime:         gf(r.MeanResponseTime),
		TailResponseTime:         gf(r.TailResponseTime),
		SLAViolationRatio:        gf(r.SLAViolationRatio),
		SuccessRatio:             gf(r.SuccessRatio),
		ForwardedFraction:        gf(r.ForwardedFraction),
		ProactiveRejuvenations:   r.ProactiveRejuvenations,
		ReactiveRecoveries:       r.ReactiveRecoveries,
		Crashes:                  r.Crashes,
		GSLBRouted:               r.GSLBRouted,
		GSLBTransitions:          r.GSLBTransitions,
		SeriesSHA256:             hex.EncodeToString(sum[:]),
	}
	for _, f := range r.FinalFractions {
		g.FinalFractions = append(g.FinalFractions, gf(f))
	}
	if r.Gossip != nil {
		g.Gossip = &goldenGossip{
			Replicas:      r.Gossip.Replicas,
			Rounds:        r.Gossip.Rounds,
			Sent:          r.Gossip.Sent,
			Delivered:     r.Gossip.Delivered,
			Dropped:       r.Gossip.Dropped,
			Converged:     r.Gossip.Converged,
			Pending:       r.Gossip.Pending,
			MeanLag:       gf(r.Gossip.MeanLagSeconds),
			MaxDivergence: r.Gossip.MaxDivergence,
		}
	}
	return g, nil
}

// figureGoldenScenarios are the paper's two experiments the figure golden
// table pins.
var figureGoldenScenarios = []string{"figure3", "figure4"}

// TestGoldenFigureScenarios runs the figure scenarios under each of the
// paper's three policies at their default configuration and compares the
// byte-pinned summary against testdata/golden.
func TestGoldenFigureScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six 30-minute simulations")
	}
	for _, name := range figureGoldenScenarios {
		for _, np := range Policies() {
			np := np
			name := name
			t.Run(name+"/"+np.Key, func(t *testing.T) { checkGoldenScenario(t, name, np) })
		}
	}
}

// TestGoldenEventLoopScenarios pins figure4 with 3-shard regions — the only
// scenario combining intra-region shard hops with cross-region forwarding —
// under each policy, the same way as the figure table.
func TestGoldenEventLoopScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 30-minute simulations")
	}
	for _, np := range Policies() {
		np := np
		t.Run("figure4-eventloop/"+np.Key, func(t *testing.T) { checkGoldenScenario(t, "figure4-eventloop", np) })
	}
}

// checkGoldenScenario runs one scenario under one policy for goldenHorizon at
// seed 42 and compares its summary with testdata/golden/<name>-<policy>.json,
// or rewrites that file under -update.
func checkGoldenScenario(t *testing.T, name string, np NamedPolicy) {
	t.Helper()
	sc, err := BuildScenario(name, 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = goldenHorizon
	res, err := Run(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	got := eventLoopFingerprint(t, res)

	path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s.json", name, np.Key))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
