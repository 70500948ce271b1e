package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// setRun is one workload's pair of runs within one full set.
type setRun struct {
	Repeat   int    `json:"repeat"`
	Workload string `json:"workload"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// summaryRow is one (workload, metric) across the repeats of a full
// set.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Min      float64 `json:"min"`
	Median   float64 `json:"median"`
	Max      float64 `json:"max"`
	// Spread is (max − min) / median over the repeats.
	Spread float64 `json:"spread"`
	// Bound is the end-to-end metric's regression bound; 0 for per-layer
	// metrics, which are not judged unless Exact.
	Bound float64 `json:"bound,omitempty"`
	Exact bool    `json:"exact,omitempty"`
	OK    bool    `json:"ok"`
}

// resultSet is the layout of the file a full run writes
// (results/e2e.json, and the committed results/baseline.json).
type resultSet struct {
	Context runContext   `json:"context"`
	Repeats int          `json:"repeats"`
	Summary []summaryRow `json:"summary"`
	Runs    []setRun     `json:"runs"`
}

// runAll runs every workload untraced and traced, repeat times over,
// each run in a fresh child process so that heap and GC state never leak
// from one row into the next. It prints every metric, writes the result
// set to out and reports whether every check, exact count and spread
// held.
func runAll(seed int64, seconds float64, repeat int, out string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("locating this binary to re-execute it: %w", err)
	}
	set := resultSet{Context: newContext(seed, seconds), Repeats: repeat}
	set.Context.TracedSecs = seconds / 4
	for r := 1; r <= repeat; r++ {
		for _, def := range workloads {
			run := setRun{Repeat: r, Workload: def.name}
			if run.EndToEnd, err = runChild(exe, def.name, seed, seconds, 0); err != nil {
				return false, err
			}
			if run.PerLayer, err = runChild(exe, def.name, seed, set.Context.TracedSecs, 1); err != nil {
				return false, err
			}
			set.Runs = append(set.Runs, run)
		}
	}
	ok := set.summarise()
	set.print()
	if err := writeJSON(out, set); err != nil {
		return false, err
	}
	fmt.Printf("\nresult set: %s (span files beside it)\n", out)
	if ok {
		fmt.Println("verdict: OK — no failed op or check; exact counts identical and every end-to-end spread within its bound across the repeats")
	} else {
		fmt.Println("verdict: FAILED — see the rows marked !! above")
	}
	return ok, nil
}

// runChild re-executes this binary for one run and decodes the result
// line. The child's progress lines pass through on standard error. A
// child that exits non-zero but printed its result (a failed check) is
// not an error here: the failure is in the result.
func runChild(exe, workload string, seed int64, seconds float64, trace int) (result, error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s (trace=%d): %w", workload, trace, runErr)
		}
		return res, fmt.Errorf("%s (trace=%d): decoding the result line: %w", workload, trace, err)
	}
	return res, nil
}

// summarise folds the runs into one row per workload and metric, and
// judges each: an exact metric must read the same on every repeat, an
// end-to-end metric's spread must stay within its bound, and no run may
// have failed an op or a check.
func (s *resultSet) summarise() bool {
	allOK := true
	for _, def := range workloads {
		for _, kind := range []struct {
			specs []metricSpec
			pick  func(setRun) result
		}{
			{endToEnd, func(r setRun) result { return r.EndToEnd }},
			{perLayer, func(r setRun) result { return r.PerLayer }},
		} {
			for _, spec := range kind.specs {
				var vals []float64
				for _, run := range s.Runs {
					if run.Workload != def.name {
						continue
					}
					res := kind.pick(run)
					vals = append(vals, res.Metrics[spec.Name].Value)
					if !res.Correct {
						allOK = false
					}
				}
				row := summaryRow{Workload: def.name, Metric: spec.Name, Unit: spec.Unit,
					Min: percentile(vals, 0), Median: median(vals), Max: percentile(vals, 100),
					Bound: spec.Bound, Exact: spec.Exact, OK: true}
				if row.Median != 0 {
					row.Spread = (row.Max - row.Min) / row.Median
				}
				switch {
				case spec.Exact:
					row.OK = row.Min == row.Max
				case spec.Bound > 0:
					row.OK = row.Spread <= spec.Bound
				}
				allOK = allOK && row.OK
				s.Summary = append(s.Summary, row)
			}
		}
	}
	return allOK
}

// print renders the summary: every end-to-end metric, and every
// per-layer metric the workload's layers produced.
func (s *resultSet) print() {
	c := s.Context
	fmt.Printf("\n%s, %d CPUs, GOMAXPROCS %d, %s, commit %s, seed %d, %gs untraced + %gs traced per workload, %d repeat(s)\n",
		c.CPU, c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.Commit, c.Seed, c.Seconds, c.TracedSecs, s.Repeats)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	workload := ""
	for _, row := range s.Summary {
		if row.Workload != workload {
			workload = row.Workload
			var ops, failed int
			for _, run := range s.Runs {
				if run.Workload == workload {
					ops += run.EndToEnd.Attempted + run.PerLayer.Attempted
					failed += run.EndToEnd.Failed + run.PerLayer.Failed
				}
			}
			fmt.Fprintf(tw, "\n%s\tops %d\tfailed_ops %d\t\t\t\n", workload, ops, failed)
			fmt.Fprintf(tw, "  metric\tmedian\tunit\tmin\tmax\tjudged\n")
		}
		if row.Bound == 0 && row.Max == 0 {
			continue // a layer this workload does not execute
		}
		judged := ""
		switch {
		case row.Exact:
			judged = "exact"
		case row.Bound > 0:
			judged = fmt.Sprintf("spread %.1f%% of %.0f%%", 100*row.Spread, 100*row.Bound)
		}
		if !row.OK {
			judged += " !!"
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%.6g\t%.6g\t%s\n", row.Metric, row.Median, row.Unit, row.Min, row.Max, judged)
	}
	tw.Flush()
}
