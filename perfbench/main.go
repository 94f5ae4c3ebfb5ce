// Command perfbench is the simulator's benchmark: it runs one named workload
// through the public experiment and backend API at a given seed, checks
// every run's output, and prints host-time end-to-end metrics, or, with
// -trace 1, the per-layer ledger of a separate traced run.  The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"run_s": {"value": 1.02, "unit": "s"}, ...}}
//
// Two more modes compare results: "compare" checks two directories of result
// files (written with -out) against each other, and "pair" alternates this
// binary's runs with those of the same benchmark built against the parent
// checkout, then compares them.  README.md
// describes the workloads, the metrics and the comparison rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "pair":
			os.Exit(pairMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-fig4, mega-cohort or global-traced")
	seed := fs.Uint64("seed", 1, "scenario seed")
	seconds := fs.Int("seconds", 25, "measured seconds of runs after the warm-up run")
	trace := fs.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	out := fs.String("out", "", "also write the full report to this result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	rep, err := bench(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(rep)
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	res := result{Correct: rep.RunsFailed == 0, Attempted: rep.Runs, Failed: rep.RunsFailed, Metrics: rep.Metrics}
	defs := endToEnd
	if rep.Trace {
		res.Metrics, defs = rep.Layers, perLayer
	}
	if err := checkCatalogue(res.Metrics, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// checkCatalogue fails unless ms holds exactly the catalogued metrics, each
// a finite number.
func checkCatalogue(ms map[string]value, defs []metricDef) error {
	if len(ms) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d catalogued", len(ms), len(defs))
	}
	for _, d := range defs {
		v, ok := ms[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
	return nil
}

func printReport(rep *report) {
	e := rep.Env
	fmt.Printf("env: cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d\n", e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Seed)
	fmt.Printf("workload %s: digest %s\n", rep.Workload, rep.Digest)
	fmt.Printf("runs %d, runs_failed %d; %d measured runs (run_s %.4g), %d era samples\n",
		rep.Runs, rep.RunsFailed, len(rep.RunSamples), rep.RunSamples, rep.EraSamples)
	for _, f := range rep.Failures {
		fmt.Println("FAILED", f)
	}
	if rep.Claims != "" {
		fmt.Print("paper claims (reported, not gated):\n" + rep.Claims)
	}
	printMetrics("end-to-end (host time)", rep.Metrics)
	if rep.Trace {
		printMetrics("per-layer (traced run)", rep.Layers)
	}
}

func printMetrics(title string, ms map[string]value) {
	fmt.Println(title + ":")
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
