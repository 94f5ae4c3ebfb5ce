package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// The comparison rules (README.md, "Comparing two commits"):
//
//   - Every workload is compared, over at least minPairs seeds run on both
//     sides, and every run on both sides passed its correctness checks.
//   - A claimed metric counts as improved only if the change wins at least
//     nine tenths of the pairs, ties counting for neither, and the medians
//     differ by more than the parent's interquartile range.
//   - Every other pair of end-to-end metric and workload regresses when the
//     change's median is worse than the parent's by more than the metric's
//     bound.
//   - A metric whose spread (IQR over median, on either side) exceeds its
//     bound is unresolved, unless every change run reads better than every
//     parent run.

// minPairs is the fewest seeds per workload a comparison accepts.
const minPairs = 10

// verdict is the outcome for one pair of metric and workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictNotMet     verdict = "claim-not-met"
	verdictRegressed  verdict = "REGRESSED"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row: one metric on one workload.
type comparison struct {
	workload, metric string
	parent, change   []float64 // paired by seed
	wins             int       // pairs the change won
	verdict          verdict
}

// better reports whether a reads better than b for the metric.
func better(d metricDef, a, b float64) bool {
	if d.better == "higher" {
		return a > b
	}
	return a < b
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(iqr(xs) / m)
}

// judge applies the comparison rules to paired samples.
func judge(d metricDef, parent, change []float64, claimed bool) (verdict, int) {
	wins := 0
	for i := range parent {
		if better(d, change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	if claimed {
		if 10*wins >= 9*len(parent) && better(d, cm, pm) && math.Abs(cm-pm) > iqr(parent) {
			return verdictImproved, wins
		}
		return verdictNotMet, wins
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(d, c, p) {
				allBetter = false
			}
		}
	}
	if spread(parent) > d.bound || spread(change) > d.bound {
		if allBetter {
			return verdictOK, wins
		}
		return verdictUnresolved, wins
	}
	worse := cm - pm
	if d.better == "higher" {
		worse = pm - cm
	}
	if worse > d.bound*math.Abs(pm) {
		return verdictRegressed, wins
	}
	return verdictOK, wins
}

// loadSide reads every result file of a directory, keyed by workload and
// then by seed.  A result with a failed run is an error: a change is not
// judged on speed when its output is wrong.
func loadSide(dir string) (map[string]map[uint64]*report, []*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]map[uint64]*report{}
	var all []*report
	for _, p := range paths {
		rep, err := readReport(p)
		if err != nil {
			return nil, nil, err
		}
		if rep.RunsFailed > 0 {
			return nil, nil, fmt.Errorf("%s: %d of %d runs failed their checks", p, rep.RunsFailed, rep.Runs)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[uint64]*report{}
		}
		out[rep.Workload][rep.Env.Seed] = rep
		all = append(all, rep)
	}
	return out, all, nil
}

// checkSameMachine refuses results measured on different CPU models or core
// counts: their host times do not compare.
func checkSameMachine(reps []*report) error {
	first := reps[0].Env
	for _, r := range reps[1:] {
		if r.Env.CPUModel != first.CPUModel || r.Env.NumCPU != first.NumCPU {
			return fmt.Errorf("results come from different machines: %q with %d CPUs and %q with %d CPUs",
				first.CPUModel, first.NumCPU, r.Env.CPUModel, r.Env.NumCPU)
		}
	}
	return nil
}

// compareDirs pairs the two sides' results by workload and seed and judges
// every end-to-end metric.  claims lists "workload:metric" pairs the change
// claims to improve.
func compareDirs(parentDir, changeDir string, claims []string) ([]comparison, error) {
	parent, pAll, err := loadSide(parentDir)
	if err != nil {
		return nil, err
	}
	change, cAll, err := loadSide(changeDir)
	if err != nil {
		return nil, err
	}
	if err := checkSameMachine(append(pAll, cAll...)); err != nil {
		return nil, err
	}
	claimed := map[string]bool{}
	for _, c := range claims {
		claimed[c] = true
	}
	var rows []comparison
	for _, w := range workloads {
		var seeds []uint64
		for s := range parent[w.name] {
			if change[w.name][s] != nil {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) < minPairs {
			return nil, fmt.Errorf("workload %s has %d seeds with results on both sides, needs %d", w.name, len(seeds), minPairs)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, d := range endToEnd {
			row := comparison{workload: w.name, metric: d.name}
			for _, s := range seeds {
				row.parent = append(row.parent, parent[w.name][s].Metrics[d.name].Value)
				row.change = append(row.change, change[w.name][s].Metrics[d.name].Value)
			}
			key := w.name + ":" + d.name
			row.verdict, row.wins = judge(d, row.parent, row.change, claimed[key])
			delete(claimed, key)
			rows = append(rows, row)
		}
	}
	for c := range claimed {
		return nil, fmt.Errorf("claim %q names no compared workload:end-to-end-metric", c)
	}
	return rows, nil
}

func printComparison(rows []comparison) {
	for _, d := range endToEnd {
		fmt.Printf("\n%s (%s, %s is better, bound %.0f%%)\n", d.name, d.unit, d.better, d.bound*100)
		fmt.Printf("  %-14s %5s  %-34s %-34s %7s  %s\n", "workload", "pairs", "parent q1 / median / q3", "change q1 / median / q3", "wins", "verdict")
		for _, r := range rows {
			if r.metric != d.name {
				continue
			}
			p1, p2, p3 := quartiles(r.parent)
			c1, c2, c3 := quartiles(r.change)
			fmt.Printf("  %-14s %5d  %10.5g %10.5g %10.5g   %10.5g %10.5g %10.5g   %3d/%-3d  %s\n",
				r.workload, len(r.parent), p1, p2, p3, c1, c2, c3, r.wins, len(r.parent), r.verdict)
		}
	}
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent's result files")
	changeDir := fs.String("change", "", "directory of the change's result files")
	claims := fs.String("claim", "", "comma-separated workload:metric pairs the change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return compareAndReport(*parentDir, *changeDir, splitList(*claims))
}

func compareAndReport(parentDir, changeDir string, claims []string) int {
	rows, err := compareDirs(parentDir, changeDir, claims)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	printComparison(rows)
	counts := map[verdict]int{}
	for _, r := range rows {
		counts[r.verdict]++
	}
	fmt.Printf("\n%d rows: %d ok, %d improved, %d claim-not-met, %d regressed, %d unresolved\n",
		len(rows), counts[verdictOK], counts[verdictImproved], counts[verdictNotMet], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 || counts[verdictNotMet] > 0 {
		return 1
	}
	return 0
}

// pairMain alternates runs of the parent's benchmark binary and this one,
// the change's, at the same seeds over every workload, writing their result
// files under -out, and then compares them.
func pairMain(args []string) int {
	fs := flag.NewFlagSet("perfbench pair", flag.ContinueOnError)
	parentBin := fs.String("parent-bin", "", "benchmark binary built against the parent")
	pairs := fs.Int("pairs", minPairs, fmt.Sprintf("pairs of runs per workload (at least %d)", minPairs))
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	seed := fs.Uint64("seed", 1, "seed of the first pair; pair i runs at seed+i")
	out := fs.String("out", ".bench_build/pair", "directory for the result files")
	claims := fs.String("claim", "", "comma-separated workload:metric pairs the change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentBin == "" || *pairs < minPairs {
		fmt.Fprintf(os.Stderr, "perfbench pair: needs -parent-bin and at least %d pairs\n", minPairs)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pair:", err)
		return 2
	}
	sides := [2]struct{ name, bin string }{{"parent", *parentBin}, {"change", self}}
	for _, s := range sides {
		// Result files of an earlier pairing would be compared with this one's.
		if err := os.RemoveAll(filepath.Join(*out, s.name)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench pair:", err)
			return 2
		}
		if err := os.MkdirAll(filepath.Join(*out, s.name), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench pair:", err)
			return 2
		}
	}
	for _, w := range workloads {
		for i := 0; i < *pairs; i++ {
			s := *seed + uint64(i)
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0} // alternate which side runs first
			}
			for _, k := range order {
				file := filepath.Join(*out, sides[k].name, fmt.Sprintf("%s-%d.json", w.name, s))
				cmd := exec.Command(sides[k].bin, "-workload", w.name, "-seed", fmt.Sprint(s),
					"-seconds", fmt.Sprint(*seconds), "-trace", "0", "-out", file)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench pair: %s %s seed %d: %v\n", sides[k].name, w.name, s, err)
					return 2
				}
				rep, err := readReport(file)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench pair:", err)
					return 2
				}
				if rep.RunsFailed > 0 {
					fmt.Fprintf(os.Stderr, "perfbench pair: %s %s seed %d: %d runs failed their checks: %v\n",
						sides[k].name, w.name, s, rep.RunsFailed, rep.Failures)
					return 2
				}
				fmt.Fprintf(os.Stderr, "pair %d/%d %s: %s done\n", i+1, *pairs, w.name, sides[k].name)
			}
		}
	}
	return compareAndReport(filepath.Join(*out, "parent"), filepath.Join(*out, "change"), splitList(*claims))
}
