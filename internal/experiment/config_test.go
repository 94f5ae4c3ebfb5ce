package experiment

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acm"
	"repro/internal/simclock"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	orig := Figure4Scenario(123)
	orig.VMC.ElasticityEnabled = true
	orig.Regions[0].SurgeClients = 100
	orig.Regions[0].SurgeAt = 20 * simclock.Minute

	var buf bytes.Buffer
	if err := SaveScenario(&buf, orig); err != nil {
		t.Fatalf("SaveScenario: %v", err)
	}
	if !strings.Contains(buf.String(), "\"region2\"") || !strings.Contains(buf.String(), "m3.small") {
		t.Fatalf("serialised scenario should mention the regions and instance types:\n%s", buf.String())
	}

	loaded, err := LoadScenario(&buf)
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	if loaded.Name != orig.Name || loaded.Seed != orig.Seed {
		t.Fatalf("identity fields lost: %+v", loaded)
	}
	if len(loaded.Regions) != 3 || loaded.Regions[0].Clients != orig.Regions[0].Clients {
		t.Fatalf("regions lost in round trip")
	}
	if loaded.Regions[0].SurgeClients != 100 || loaded.Regions[0].SurgeAt != 20*simclock.Minute {
		t.Fatalf("surge configuration lost in round trip: %+v", loaded.Regions[0])
	}
	if !loaded.VMC.ElasticityEnabled {
		t.Fatalf("VMC configuration lost in round trip")
	}
	if loaded.Horizon != orig.Horizon || loaded.Beta != orig.Beta {
		t.Fatalf("loop parameters lost in round trip")
	}
}

func TestLoadScenarioValidation(t *testing.T) {
	if _, err := LoadScenario(strings.NewReader("{nonsense")); err == nil {
		t.Errorf("malformed JSON should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x"}`)); err == nil {
		t.Errorf("a scenario without regions should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x","Regions":[{"Clients":10}]}`)); err == nil {
		t.Errorf("a region without a name should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x","Regions":[{"Region":{"Name":"r"},"Clients":10}]}`)); err == nil {
		t.Errorf("a region without an instance type should be rejected")
	}
	// Unknown fields fail by name — among them the keys an older
	// -dump-config wrote for options since deleted.
	for key, raw := range map[string]string{
		"Unknown":     `{"Name":"x","Unknown":1}`,
		"TickWorkers": `{"Name":"x","VMC":{"TickWorkers":4}}`,
		"Backend":     `{"Name":"x","Backend":"sim"}`,
	} {
		_, err := LoadScenario(strings.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("unknown field %s: error %v, want one naming the key", key, err)
		}
	}
}

func TestLoadScenarioAppliesDefaults(t *testing.T) {
	raw := `{"Name":"minimal","Regions":[{"Region":{"Name":"r1","Type":{"Name":"m3.medium","VCPUs":1,"ClockGHz":2.5,"MemoryMB":3750,"BaseServiceMs":40,"MaxThreads":2048},"InitialActive":2},"Clients":32}]}`
	sc, err := LoadScenario(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	if sc.Horizon != 2*simclock.Hour || sc.Beta != 0.5 || sc.ControlInterval != 60*simclock.Second {
		t.Fatalf("defaults not applied: %+v", sc)
	}
	if sc.Predictor != acm.PredictorOracle {
		t.Fatalf("default predictor not applied")
	}
}

func TestScenarioFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	orig := Figure3Scenario(7)
	if err := SaveScenarioFile(path, orig); err != nil {
		t.Fatalf("SaveScenarioFile: %v", err)
	}
	loaded, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatalf("LoadScenarioFile: %v", err)
	}
	if loaded.Name != orig.Name || len(loaded.Regions) != len(orig.Regions) {
		t.Fatalf("file round trip lost data")
	}
	if _, err := LoadScenarioFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatalf("loading a missing file should fail")
	}
	// A loaded scenario must actually run.
	loaded.Horizon = 10 * simclock.Minute
	loaded.Regions[0].Clients = 40
	loaded.Regions[1].Clients = 20
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatalf("PolicyByKey: %v", err)
	}
	if _, err := Run(loaded, np); err != nil {
		t.Fatalf("running a loaded scenario failed: %v", err)
	}
}
