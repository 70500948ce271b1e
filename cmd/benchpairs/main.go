// Command benchpairs runs the end-to-end benchmark (bench/e2e, the
// program BENCHMARK.json declares) as alternating before/after pairs — the
// protocol every performance claim in this repository rests on — and
// prints the verdict table:
//
//	benchpairs -base HEAD~1 -workload sim_fig12_tagger,sim_cbd_forensics [-pairs 10] [-seconds 12] [-seed 1]
//	make bench-pairs BASE=HEAD~1 WORKLOAD=sim_fig12_tagger,sim_cbd_forensics [PAIRS=10 SECONDS=12 SEED=1]
//
// It exports the committed files of -base with `git archive` into a
// temporary directory (nothing is written to the repository or its .git),
// builds bench/e2e there and in the working tree — once per side, however
// many workloads the comma-separated -workload list names, so a change's
// claimed row and its no-regression rows come from one command and one
// pair of binaries — and then takes the workloads in turn: pair i runs
// with seed -seed+i-1 on both sides, the base first in odd pairs and the
// change first in even ones. Per workload it prints one verdict table: for
// each end-to-end metric of BENCHMARK.json the base median and
// interquartile range, the change median, the relative difference of the
// medians, and in how many pairs the change was better (ties count for
// neither side); then whether that meets the bar for a claimed gain (wins
// in at least nine tenths of the pairs and medians further apart than the
// base's IQR) and whether it stays inside the metric's regression bound.
// Every run's numbers are listed first.
//
// Run it from the repository root. It exits 1 when a run fails to start
// or prints no result; a run the benchmark itself judges incorrect is
// counted in the failed share and reported, not fatal.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// metricDef is one end_to_end entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the JSON line one `e2e -workload` run prints last.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpairs: ")
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "bench/e2e workloads to run, comma-separated (required)")
	pairs := flag.Int("pairs", 10, "number of base/change pairs")
	seed := flag.Int("seed", 1, "seed of the first pair; pair i runs with seed+i-1 on both sides")
	seconds := flag.Float64("seconds", 12, "length of each run's timed loop (BENCHMARK.json's run_seconds)")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *seed, *seconds); err != nil {
		log.Fatal(err)
	}
}

func run(base, workloadList string, pairs, seed int, seconds float64) error {
	metrics, declared, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}
	// A misspelt third workload should not surface after two have run.
	workloads, err := parseWorkloads(workloadList, declared)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// bin[0] is the base, bin[1] the change (the working tree).
	bin := [2]string{filepath.Join(tmp, "e2e_base"), filepath.Join(tmp, "e2e_change")}
	baseDir := filepath.Join(tmp, "base")
	if err := exportRevision(base, baseDir); err != nil {
		return err
	}
	for side, dir := range [2]string{filepath.Join(baseDir, "bench"), "bench"} {
		build := exec.Command("go", "build", "-o", bin[side], "./e2e")
		build.Dir, build.Stderr = dir, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("go build in %s: %w", dir, err)
		}
	}
	// A traced run writes results/ under its working directory; untraced
	// runs write nothing, but give them a scratch directory all the same.
	runDir := filepath.Join(tmp, "run")
	if err := os.MkdirAll(filepath.Join(runDir, "results"), 0o755); err != nil {
		return err
	}

	for i, workload := range workloads {
		if i > 0 {
			fmt.Println()
		}
		results, err := runPairs(bin, runDir, metrics, workload, pairs, seed, seconds)
		if err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
		fmt.Printf("\n%s, %d pairs (seeds %d-%d), -seconds %g, base %s\n", workload, pairs, seed, seed+pairs-1, seconds, base)
		printVerdicts(os.Stdout, metrics, results)
	}
	return nil
}

// sideNames label the two sides: index 0 is the base, 1 the change.
var sideNames = [2]string{"base", "change"}

// runPairs runs one workload's alternating pairs, listing every run, and
// returns the results by side, pair i at index i-1.
func runPairs(bin [2]string, runDir string, metrics []metricDef, workload string, pairs, seed int, seconds float64) ([2][]runResult, error) {
	var results [2][]runResult
	for i := 1; i <= pairs; i++ {
		for _, side := range pairOrder(i) {
			res, err := runOnce(bin[side], runDir, workload, seed+i-1, seconds)
			if err != nil {
				return results, fmt.Errorf("pair %d, %s: %w", i, sideNames[side], err)
			}
			results[side] = append(results[side], res)
			fmt.Printf("%s pair %2d %-6s", workload, i, sideNames[side])
			for _, m := range metrics {
				fmt.Printf("  %s %.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Printf("  failed %d/%d\n", res.Failed, res.Attempted)
		}
	}
	return results, nil
}

// printVerdicts writes one workload's verdict table: a row per end-to-end
// metric, then each side's failed share.
func printVerdicts(w io.Writer, metrics []metricDef, results [2][]runResult) {
	pairs := len(results[0])
	fmt.Fprintln(w, "gain = change better in >= 9/10 of the pairs and medians further apart than the base's IQR")
	fmt.Fprintf(w, "%-22s %12s %10s %12s %8s %6s  %s\n", "metric", "base median", "base IQR", "change", "delta", "wins", "verdict")
	for _, m := range metrics {
		row := summarize(m, values(results[0], m.Name), values(results[1], m.Name))
		fmt.Fprintf(w, "%-22s %12.4g %10.4g %12.4g %+7.1f%% %3d/%-2d  %s\n",
			m.Name+" ("+m.Unit+")", row.baseMedian, row.baseIQR, row.changeMedian, 100*row.delta, row.wins, pairs, row.verdict)
	}
	for side := range results {
		attempted, failed, incorrect := 0, 0, 0
		for _, r := range results[side] {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		fmt.Fprintf(w, "%-6s failed share %d/%d operations, %d/%d runs judged incorrect\n", sideNames[side], failed, attempted, incorrect, pairs)
	}
}

// readDeclaration reads BENCHMARK.json's end-to-end metric definitions
// and the names of the workloads it declares.
func readDeclaration(path string) ([]metricDef, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var decl struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	names := make([]string, len(decl.Workloads))
	for i, w := range decl.Workloads {
		names[i] = w.Name
	}
	return decl.EndToEnd, names, nil
}

// parseWorkloads splits the -workload list and checks every entry against
// the declared workloads, in the order given.
func parseWorkloads(list string, declared []string) ([]string, error) {
	var out []string
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		switch {
		case w == "":
			return nil, fmt.Errorf("-workload %q has an empty entry", list)
		case !slices.Contains(declared, w):
			return nil, fmt.Errorf("-workload %q is not one of BENCHMARK.json's: %s", w, strings.Join(declared, ", "))
		case slices.Contains(out, w):
			return nil, fmt.Errorf("-workload names %q twice", w)
		}
		out = append(out, w)
	}
	return out, nil
}

// exportRevision unpacks the committed files of rev into dir.
func exportRevision(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	archive.Stderr, untar.Stdin, untar.Stderr = os.Stderr, pipe, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait() // reap it; git's failure is the one to report
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar -x: %w", err)
	}
	return nil
}

// pairOrder returns which side (0 base, 1 change) runs first and second in
// pair i: the base leads odd pairs, the change even ones, so neither side
// always inherits the other's warm caches or thermal state.
func pairOrder(i int) [2]int {
	if i%2 == 1 {
		return [2]int{0, 1}
	}
	return [2]int{1, 0}
}

// runOnce performs one untraced run and decodes its result line.
func runOnce(bin, dir, workload string, seed int, seconds float64) (runResult, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	// Exit status 1 is "ran, judged incorrect" and still prints a result.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return runResult{}, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("no result line: %w\n%s", err, stderr.String())
	}
	return res, nil
}

func values(rs []runResult, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// summary is one row of the verdict table.
type summary struct {
	baseMedian, baseIQR, changeMedian float64
	delta                             float64 // (change - base) / base, of the medians
	wins                              int     // pairs in which the change was strictly better
	verdict                           string
}

// summarize judges one metric over paired samples (base[i] and change[i]
// are pair i).
func summarize(m metricDef, base, change []float64) summary {
	s := summary{
		baseMedian:   quantile(base, 0.5),
		baseIQR:      quantile(base, 0.75) - quantile(base, 0.25),
		changeMedian: quantile(change, 0.5),
	}
	sign := 1.0 // multiplies differences so that positive = change is better
	if m.Better == "higher" {
		sign = -1
	}
	for i := range base {
		if sign*(base[i]-change[i]) > 0 {
			s.wins++
		}
	}
	if s.baseMedian != 0 {
		s.delta = (s.changeMedian - s.baseMedian) / math.Abs(s.baseMedian)
	}
	gain := sign * (s.baseMedian - s.changeMedian)
	switch {
	case 10*s.wins >= 9*len(base) && gain > s.baseIQR:
		s.verdict = "gain"
	case sign*s.delta > m.Bound:
		s.verdict = fmt.Sprintf("WORSE: beyond the %.0f%% bound", 100*m.Bound)
	case math.Abs(gain) <= s.baseIQR:
		s.verdict = "inside the base's quartiles"
	default:
		s.verdict = fmt.Sprintf("within the %.0f%% bound, not a gain", 100*m.Bound)
	}
	return s
}

// quantile returns the q-quantile (0..1) of samples by linear
// interpolation between closest ranks — the rule bench/e2e uses.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}
