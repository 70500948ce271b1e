// Package benchfmt parses `go test -bench` output into structured
// records, persists them as JSON snapshot files (the repo's BENCH_*.json
// trajectory), and compares two snapshots against a regression threshold.
// It is the engine behind `make bench` and cmd/benchdiff.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	N           int64   `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "priorities",
	// "max-rules") and any standard unit not broken out above.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is one benchmark snapshot: the JSON document `benchdiff -record`
// writes and `benchdiff old new` compares.
type File struct {
	// Context captures the `goos:`/`goarch:`/`pkg:`/`cpu:` header lines. A
	// "note" key, added by hand, is a caveat benchdiff prints when it
	// compares the snapshot.
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// normalizeName strips the "-N" GOMAXPROCS suffix `go test` appends to a
// benchmark's name whenever N is not 1, so that snapshots recorded at
// different processor counts — or before and after the repo's build VM
// grew a second vCPU — join on the same key. Like x/perf's benchfmt it
// reads any trailing "-<digits>" as that suffix; normalizeNames reports
// the one case where that guess loses information.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// normalizeNames rewrites every row's name with normalizeName. Two rows
// whose names differ as recorded but not once normalized — sub-benchmarks
// "size-100" and "size-200" run at GOMAXPROCS=1, or one benchmark run at
// two processor counts — would silently merge into one key, so that is an
// error instead.
func (f *File) normalizeNames() error {
	raw := make(map[string]string, len(f.Benchmarks))
	for i := range f.Benchmarks {
		b := &f.Benchmarks[i]
		name := normalizeName(b.Name)
		if prev, ok := raw[name]; ok && prev != b.Name {
			return fmt.Errorf("benchfmt: %q and %q both normalize to %q: a trailing -<digits> is read as the GOMAXPROCS suffix", prev, b.Name, name)
		}
		raw[name] = b.Name
		b.Name = name
	}
	return nil
}

// Parse reads `go test -bench` text output. Non-benchmark lines (PASS,
// ok, header lines) are skipped; header lines are kept as context.
// Benchmark names are stored normalized (normalizeNames).
func Parse(r io.Reader) (*File, error) {
	f := &File{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		for _, h := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, h+":"); ok {
				f.Context[h] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: %w", err)
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := f.normalizeNames(); err != nil {
		return nil, err
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
	return f, nil
}

func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: fields[0], N: n}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q in %q: %w", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// Dedupe collapses duplicate benchmark names — what a `-count N` run
// produces — into a single record each, keeping the run with the lowest
// ns/op. Min-of-N is the standard noise-robust estimate: scheduler and
// GC interference only ever add time, so the fastest run is the closest
// observation of the code's true cost. No-op for -count 1 output.
func (f *File) Dedupe() {
	best := make(map[string]Benchmark, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		if prev, ok := best[b.Name]; !ok || b.NsPerOp < prev.NsPerOp {
			best[b.Name] = b
		}
	}
	if len(best) == len(f.Benchmarks) {
		return
	}
	f.Benchmarks = f.Benchmarks[:0]
	for _, b := range best {
		f.Benchmarks = append(f.Benchmarks, b)
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
}

// WriteFile persists a snapshot as indented JSON.
func WriteFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a snapshot written by WriteFile. Names are normalized on
// the way in (normalizeNames): the committed trajectory holds both forms.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if err := f.normalizeNames(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Delta is the old-vs-new comparison of one benchmark.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	TimeRatio  float64 // new/old; 1.20 = 20% slower
	OldAllocs  float64
	NewAllocs  float64
	OldBytes   float64
	NewBytes   float64
	Regression bool // time ratio exceeded the threshold
	// AllocRegression flags allocs/op or bytes/op growth beyond the
	// allocation threshold, including a zero-alloc benchmark starting to
	// allocate at all (the engine's steady-state contract).
	AllocRegression bool
}

// Compare matches benchmarks by name and flags every one whose ns/op
// grew by more than threshold (0.15 = +15%), or whose allocs/op or
// bytes/op grew by more than allocThreshold. A negative allocThreshold
// disables allocation gating (needed when snapshots come from runs
// without -benchmem, or with deliberately different instrumentation).
// Benchmarks present in only one snapshot are skipped — the gate judges
// only common ground; OnlyInBaseline names what that leaves out.
func Compare(old, new *File, threshold, allocThreshold float64) []Delta {
	idx := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		idx[b.Name] = b
	}
	var out []Delta
	for _, nb := range new.Benchmarks {
		ob, ok := idx[nb.Name]
		if !ok || ob.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:      nb.Name,
			OldNs:     ob.NsPerOp,
			NewNs:     nb.NsPerOp,
			TimeRatio: nb.NsPerOp / ob.NsPerOp,
			OldAllocs: ob.AllocsPerOp,
			NewAllocs: nb.AllocsPerOp,
			OldBytes:  ob.BytesPerOp,
			NewBytes:  nb.BytesPerOp,
		}
		d.Regression = d.TimeRatio > 1+threshold
		if allocThreshold >= 0 {
			d.AllocRegression = allocGrew(d.OldAllocs, d.NewAllocs, allocThreshold) ||
				allocGrew(d.OldBytes, d.NewBytes, allocThreshold)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SameCPU returns an error when the two snapshots name different CPUs in
// their `cpu:` context line (a snapshot without one matches only another
// without one). Timings from different machines differ by more than any
// regression threshold, so comparing them gates nothing.
func SameCPU(old, new *File) error {
	if oc, nc := old.Context["cpu"], new.Context["cpu"]; oc != nc {
		return fmt.Errorf("benchfmt: snapshots come from different CPUs: baseline %q, new %q", oc, nc)
	}
	return nil
}

// OnlyInBaseline lists the benchmarks of old that new lacks, sorted by
// name: deleted or renamed benchmarks, which Compare cannot judge.
func OnlyInBaseline(old, new *File) []string {
	have := make(map[string]bool, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		have[b.Name] = true
	}
	var out []string
	for _, b := range old.Benchmarks {
		if !have[b.Name] {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}

// allocGrew applies the allocation gate to one old/new counter pair.
// Zero-to-nonzero is always a regression: no ratio tolerance can excuse a
// benchmark that used to run allocation-free.
func allocGrew(old, new, threshold float64) bool {
	if old == 0 {
		return new > 0
	}
	return new/old > 1+threshold
}

// AnyRegression reports whether some delta tripped a threshold.
func AnyRegression(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Regression || d.AllocRegression {
			return true
		}
	}
	return false
}

// FormatDeltas renders a comparison table for terminals and CI logs.
func FormatDeltas(deltas []Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %8s %12s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs")
	for _, d := range deltas {
		mark := ""
		if d.Regression {
			mark = "  << REGRESSION"
		}
		if d.AllocRegression {
			mark += "  << ALLOC REGRESSION"
		}
		fmt.Fprintf(&b, "%-40s %14.0f %14.0f %7.2fx %6.0f->%-6.0f%s\n",
			d.Name, d.OldNs, d.NewNs, d.TimeRatio, d.OldAllocs, d.NewAllocs, mark)
	}
	return b.String()
}
