package benchfmt

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkAlgorithm2Jellyfish200         	       1	  70200000 ns/op	15900000 B/op	   68660 allocs/op
BenchmarkTable5Jellyfish200             	       5	 382600000 ns/op	         4.000 longest	        24.00 max-rules	         3.000 priorities	91000000 B/op	  612783 allocs/op
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Context["goos"]; got != "linux" {
		t.Errorf("context goos = %q, want linux", got)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benchmarks))
	}
	a := f.Benchmarks[0]
	if a.Name != "BenchmarkAlgorithm2Jellyfish200" || a.N != 1 ||
		a.NsPerOp != 70200000 || a.BytesPerOp != 15900000 || a.AllocsPerOp != 68660 {
		t.Errorf("unexpected first benchmark: %+v", a)
	}
	b := f.Benchmarks[1]
	if b.Metrics["priorities"] != 3 || b.Metrics["max-rules"] != 24 {
		t.Errorf("custom metrics not parsed: %+v", b.Metrics)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBroken 12 ns/op\n")); err == nil {
		t.Error("odd field count accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkBroken x 100 ns/op\n")); err == nil {
		t.Error("non-numeric iteration count accepted")
	}
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, N: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

// The contract the Makefile gate relies on: a 20% time regression trips
// the default 15% threshold, a 10% one does not.
func TestCompareThreshold(t *testing.T) {
	old := &File{Benchmarks: []Benchmark{
		bench("BenchmarkSlower", 100e6, 1000),
		bench("BenchmarkWithin", 100e6, 1000),
		bench("BenchmarkFaster", 100e6, 1000),
		bench("BenchmarkRemoved", 100e6, 1000),
	}}
	cur := &File{Benchmarks: []Benchmark{
		bench("BenchmarkSlower", 120e6, 1000), // +20%: regression
		bench("BenchmarkWithin", 110e6, 1000), // +10%: noise, passes
		bench("BenchmarkFaster", 50e6, 500),
		bench("BenchmarkAdded", 100e6, 1000),
	}}
	deltas := Compare(old, cur, 0.15, -1)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3 (unmatched names skipped)", len(deltas))
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if !byName["BenchmarkSlower"].Regression {
		t.Error("+20%% not flagged as regression at 15%% threshold")
	}
	if byName["BenchmarkWithin"].Regression {
		t.Error("+10%% flagged as regression at 15%% threshold")
	}
	if byName["BenchmarkFaster"].Regression {
		t.Error("speedup flagged as regression")
	}
	if !AnyRegression(deltas) {
		t.Error("AnyRegression missed the flagged delta")
	}
	out := FormatDeltas(deltas)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("formatted table missing REGRESSION marker:\n%s", out)
	}
}

// TestCompareAllocThreshold: the allocation gate trips on allocs/op or
// bytes/op growth beyond its own threshold, treats zero-to-nonzero as an
// unconditional failure (the steady-state zero-alloc contract), and
// disengages entirely when negative.
func TestCompareAllocThreshold(t *testing.T) {
	mem := func(name string, ns, allocs, bytes float64) Benchmark {
		return Benchmark{Name: name, N: 1, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
	}
	old := &File{Benchmarks: []Benchmark{
		mem("BenchmarkAllocGrew", 100, 1000, 8000),
		mem("BenchmarkBytesGrew", 100, 1000, 8000),
		mem("BenchmarkZeroToNonzero", 100, 0, 0),
		mem("BenchmarkWithin", 100, 1000, 8000),
	}}
	cur := &File{Benchmarks: []Benchmark{
		mem("BenchmarkAllocGrew", 100, 1200, 8000), // +20% allocs/op
		mem("BenchmarkBytesGrew", 100, 1000, 9600), // +20% bytes/op
		mem("BenchmarkZeroToNonzero", 100, 1, 16),  // was allocation-free
		mem("BenchmarkWithin", 100, 1050, 8400),    // +5%: under threshold
	}}
	byName := map[string]Delta{}
	for _, d := range Compare(old, cur, 0.15, 0.10) {
		byName[d.Name] = d
	}
	for _, name := range []string{"BenchmarkAllocGrew", "BenchmarkBytesGrew", "BenchmarkZeroToNonzero"} {
		if !byName[name].AllocRegression {
			t.Errorf("%s not flagged as alloc regression", name)
		}
		if byName[name].Regression {
			t.Errorf("%s flagged as time regression; only its allocations grew", name)
		}
	}
	if byName["BenchmarkWithin"].AllocRegression {
		t.Error("+5%% allocation growth flagged at 10%% threshold")
	}
	if !AnyRegression(Compare(old, cur, 0.15, 0.10)) {
		t.Error("AnyRegression missed the alloc-only regressions")
	}
	if AnyRegression(Compare(old, cur, 0.15, -1)) {
		t.Error("negative alloc threshold must disable the allocation gate")
	}
	out := FormatDeltas(Compare(old, cur, 0.15, 0.10))
	if !strings.Contains(out, "ALLOC REGRESSION") {
		t.Errorf("formatted table missing ALLOC REGRESSION marker:\n%s", out)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(f.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d != %d", len(got.Benchmarks), len(f.Benchmarks))
	}
	for i := range got.Benchmarks {
		if got.Benchmarks[i].Name != f.Benchmarks[i].Name ||
			got.Benchmarks[i].NsPerOp != f.Benchmarks[i].NsPerOp {
			t.Errorf("benchmark %d differs after round trip", i)
		}
	}
	// Identical snapshots compare clean at any threshold, allocation
	// gate included.
	if AnyRegression(Compare(f, got, 0, 0)) {
		t.Error("identical snapshots reported a regression")
	}
}

// TestDedupe: -count N output repeats every benchmark name; Dedupe keeps
// the fastest run per name (scheduler noise only adds time) and leaves
// already-unique snapshots untouched.
func TestDedupe(t *testing.T) {
	f := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkB", NsPerOp: 50},
		{Name: "BenchmarkA", NsPerOp: 120, AllocsPerOp: 7},
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 7},
		{Name: "BenchmarkA", NsPerOp: 110, AllocsPerOp: 7},
	}}
	f.Dedupe()
	if len(f.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	if f.Benchmarks[0].Name != "BenchmarkA" || f.Benchmarks[0].NsPerOp != 100 {
		t.Errorf("kept %+v, want BenchmarkA at 100 ns/op", f.Benchmarks[0])
	}
	if f.Benchmarks[1].Name != "BenchmarkB" || f.Benchmarks[1].NsPerOp != 50 {
		t.Errorf("kept %+v, want BenchmarkB at 50 ns/op", f.Benchmarks[1])
	}
	before := f.Benchmarks
	f.Dedupe() // idempotent on unique names
	if len(f.Benchmarks) != 2 || &before[0] != &f.Benchmarks[0] {
		t.Error("Dedupe on a unique snapshot must be a no-op")
	}
}

// TestDedupeSingleIterationSamples is the `make bench BENCHTIME=1x` shape
// that motivated min-of-N gating: every repeated run reports n=1
// iterations, so each sample is a single raw measurement with full
// scheduler/GC noise on it. Dedupe must still collapse the repeats to the
// fastest sample (keeping its n=1 honest, not summing counts), and a
// snapshot where each name appears exactly once — a -count 1 run — must
// pass through unchanged.
func TestDedupeSingleIterationSamples(t *testing.T) {
	f := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkSynth", N: 1, NsPerOp: 9_800_000},
		{Name: "BenchmarkSynth", N: 1, NsPerOp: 7_100_000},
		{Name: "BenchmarkSynth", N: 1, NsPerOp: 8_300_000},
	}}
	f.Dedupe()
	if len(f.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	if b := f.Benchmarks[0]; b.NsPerOp != 7_100_000 || b.N != 1 {
		t.Errorf("kept %+v, want the fastest n=1 sample at 7.1ms", b)
	}

	single := &File{Benchmarks: []Benchmark{{Name: "BenchmarkOnce", N: 1, NsPerOp: 42}}}
	single.Dedupe()
	if len(single.Benchmarks) != 1 || single.Benchmarks[0].NsPerOp != 42 {
		t.Errorf("n=1 single-sample snapshot changed: %+v", single.Benchmarks)
	}
}

func TestSameCPU(t *testing.T) {
	snap := func(cpu string) *File {
		f := &File{Context: map[string]string{"goos": "linux"}}
		if cpu != "" {
			f.Context["cpu"] = cpu
		}
		return f
	}
	if err := SameCPU(snap("AMD EPYC 7B13"), snap("AMD EPYC 7B13")); err != nil {
		t.Errorf("equal CPUs refused: %v", err)
	}
	if err := SameCPU(snap(""), &File{}); err != nil {
		t.Errorf("two snapshots without a cpu line refused: %v", err)
	}
	err := SameCPU(snap("Intel(R) Xeon(R) Processor @ 2.70GHz"), snap("Intel(R) Xeon(R) Processor @ 2.10GHz"))
	if err == nil {
		t.Fatal("different CPUs accepted")
	}
	for _, want := range []string{"2.70GHz", "2.10GHz"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if SameCPU(snap("AMD EPYC 7B13"), snap("")) == nil {
		t.Error("snapshot without a cpu line accepted against one with")
	}
}

func TestOnlyInBaseline(t *testing.T) {
	old := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkRenamed", NsPerOp: 10},
		{Name: "BenchmarkKept", NsPerOp: 10},
		{Name: "BenchmarkDeleted", NsPerOp: 10},
	}}
	cur := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkKept", NsPerOp: 11},
		{Name: "BenchmarkRenamedV2", NsPerOp: 10},
	}}
	got := OnlyInBaseline(old, cur)
	if want := []string{"BenchmarkDeleted", "BenchmarkRenamed"}; !slices.Equal(got, want) {
		t.Errorf("OnlyInBaseline = %v, want %v", got, want)
	}
	// Compare judges only common ground, so the two departures above are
	// invisible to it — the reason OnlyInBaseline exists.
	if deltas := Compare(old, cur, 0.15, -1); len(deltas) != 1 || deltas[0].Name != "BenchmarkKept" {
		t.Errorf("Compare = %+v, want only BenchmarkKept", deltas)
	}
	if got := OnlyInBaseline(cur, cur); len(got) != 0 {
		t.Errorf("identical snapshots: %v", got)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkAlgorithm2Jellyfish200":           "BenchmarkAlgorithm2Jellyfish200",
		"BenchmarkAlgorithm2Jellyfish200-2":         "BenchmarkAlgorithm2Jellyfish200",
		"BenchmarkEventScheduleDispatch/lanes-16":   "BenchmarkEventScheduleDispatch/lanes",
		"BenchmarkEventScheduleDispatch/k-bounce":   "BenchmarkEventScheduleDispatch/k-bounce",
		"BenchmarkEventScheduleDispatch/k-bounce-2": "BenchmarkEventScheduleDispatch/k-bounce",
		"BenchmarkTrailingDash-":                    "BenchmarkTrailingDash-",
		"-2":                                        "-2",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
	f, err := Parse(strings.NewReader("BenchmarkFoo-2 \t 10 \t 100 ns/op\nBenchmarkFoo/sub-2 \t 10 \t 50 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks[0].Name != "BenchmarkFoo" || f.Benchmarks[1].Name != "BenchmarkFoo/sub" {
		t.Errorf("Parse kept the GOMAXPROCS suffix: %q, %q", f.Benchmarks[0].Name, f.Benchmarks[1].Name)
	}
}

// TestNormalizeCollision: names that differ only in what is read as the
// GOMAXPROCS suffix must be refused, not merged; repeats of one name (a
// -count N run) are not a collision.
func TestNormalizeCollision(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkFoo/size-100 \t 10 \t 100 ns/op\nBenchmarkFoo/size-200 \t 10 \t 50 ns/op\n"))
	if err == nil || !strings.Contains(err.Error(), `"BenchmarkFoo/size"`) {
		t.Errorf("Parse merged size-100 and size-200: err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "b.json")
	if err := WriteFile(path, &File{Benchmarks: []Benchmark{{Name: "BenchmarkFoo"}, {Name: "BenchmarkFoo-2"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("ReadFile merged BenchmarkFoo and BenchmarkFoo-2")
	}
	f, err := Parse(strings.NewReader("BenchmarkFoo-2 \t 10 \t 100 ns/op\nBenchmarkFoo-2 \t 10 \t 90 ns/op\n"))
	if err != nil || len(f.Benchmarks) != 2 {
		t.Errorf("-count 2 output: %v, %d rows", err, len(f.Benchmarks))
	}
}

// TestCommittedSnapshotsJoin diffs a committed snapshot recorded before
// `go test` started suffixing names with "-2" on the build VM against one
// recorded since. Before names were normalized the two shared no key:
// benchdiff reported every row as only-in-baseline and compared nothing.
func TestCommittedSnapshotsJoin(t *testing.T) {
	old, err := ReadFile("../../BENCH_2026-08-07.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ReadFile("../../BENCH_2026-10-01.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCPU(old, cur); err != nil {
		t.Fatalf("the two snapshots were chosen for sharing a CPU: %v", err)
	}
	deltas := Compare(old, cur, 0.15, -1)
	common := map[string]bool{}
	for _, d := range deltas {
		common[d.Name] = true
	}
	for _, name := range []string{
		"BenchmarkAlgorithm2Jellyfish200", "BenchmarkFigure12WithTagger", "BenchmarkTable5Jellyfish200",
	} {
		if !common[name] {
			t.Errorf("%s is in both snapshots but not in their comparison", name)
		}
	}
	// Everything the old snapshot has, bar the benchmarks since deleted,
	// must be common ground.
	gone := OnlyInBaseline(old, cur)
	if len(deltas)+len(gone) != len(old.Benchmarks) {
		t.Errorf("%d compared + %d only in baseline != %d in the baseline", len(deltas), len(gone), len(old.Benchmarks))
	}
	if len(deltas) < len(old.Benchmarks)*3/4 {
		t.Errorf("only %d of %d baseline rows joined; missing: %v", len(deltas), len(old.Benchmarks), gone)
	}
}
