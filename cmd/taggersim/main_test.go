package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	tagger "repro"
	"repro/internal/trace/pipeline"
)

// -update rewrites the goldens under testdata/ from the current code.
// They were first captured from the pre-registry binary (the 13-arm
// switch), which is what makes them a behaviour pin rather than a
// self-portrait; regenerate (`make experiments-golden UPDATE=1`) only
// after an intentional output change, and review the diff.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// menu is the -exp menu as the pre-registry command printed it: same
// names, same order.
var menu = []string{
	"fig10", "fig11", "fig12", "table1", "overhead", "multiclass",
	"recovery", "dcqcn", "budget", "compression", "isolation",
	"reconverge", "chaos", "churn", "detect",
}

// smallArgs sizes the experiments whose defaults are too slow for a
// unit test; every other experiment runs at its defaults.
var smallArgs = map[string][]string{
	"table1": {"-days", "1", "-per-day", "100000"},
	"chaos":  {"-seeds", "2"},
	"churn":  {"-seeds", "2"},
	"detect": {"-runs", "2"},
}

// runIn runs the command with dir as its working directory (trace files
// and incidents/ land there) and returns its stdout and error.
func runIn(t *testing.T, dir string, exps []tagger.Experiment, args ...string) (string, error) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	err = run(args, &out, exps)
	return out.String(), err
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout diverges from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenExperiments pins every -exp name's stdout, byte for byte,
// plus the capture modes: fig10 traced twice (one capture must equal
// taggertrace's checked-in binary capture of the same run, the other's
// `taggertrace -o jsonl` export its checked-in JSONL), fig10 and the
// detect matrix under the flight recorder (incident bytes included),
// and a traced chaos and churn soak.
func TestGoldenExperiments(t *testing.T) {
	type gcase struct {
		golden string
		args   []string
	}
	var cases []gcase
	for _, e := range tagger.Experiments() {
		cases = append(cases, gcase{e.Name, append([]string{"-exp", e.Name}, smallArgs[e.Name]...)})
	}
	cases = append(cases,
		gcase{"fig10-trace-jsonl", []string{"-exp", "fig10", "-trace", "fig10.trc"}},
		gcase{"fig10-trace-binary", []string{"-exp", "fig10", "-trace", "fig10.trc.bin"}},
		gcase{"fig10-flightrec", []string{"-exp", "fig10", "-flightrec"}},
		gcase{"detect-flightrec", []string{"-exp", "detect", "-runs", "2", "-flightrec"}},
		gcase{"chaos-trace", []string{"-exp", "chaos", "-seeds", "1", "-trace", "chaos.trc"}},
		gcase{"churn-trace", []string{"-exp", "churn", "-seeds", "1", "-trace", "churn.trc"}},
	)
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			got, err := runIn(t, dir, tagger.Experiments(), c.args...)
			if err != nil {
				t.Fatalf("taggersim %s: %v", strings.Join(c.args, " "), err)
			}
			checkGolden(t, c.golden, got)
		})
	}
	// Same bytes on disk as before the refactor; a .jsonl want is
	// compared with the capture's JSONL export.
	for got, want := range map[string]string{
		"fig10.trc":                     "../taggertrace/testdata/fig10.jsonl",
		"fig10.trc.bin":                 "../taggertrace/testdata/fig10.bin",
		"incidents/fig10.without.0.tgl": "testdata/fig10.without.0.tgl",
	} {
		g, err := os.ReadFile(filepath.Join(dir, got))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(want, ".jsonl") {
			g = exportJSONL(t, g)
		}
		if *update && strings.HasPrefix(want, "testdata/") {
			if err := os.WriteFile(want, g, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s (%d bytes) differs from %s (%d bytes)", got, len(g), want, len(w))
		}
	}
	for _, f := range []string{"chaos.trc.seed1.with", "chaos.trc.seed1.without", "churn.trc.seed1",
		"incidents/detect.seed1.detect.0.tgl"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("capture %s missing or empty (%v)", f, err)
		}
	}
}

// exportJSONL renders a binary capture as JSON lines, the way
// `taggertrace -o jsonl` does.
func exportJSONL(t *testing.T, capture []byte) []byte {
	t.Helper()
	src, err := pipeline.Open(bytes.NewReader(capture), pipeline.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := pipeline.Run(src, []pipeline.Stage{&pipeline.Normalize{}}, pipeline.NewJSONLSink(&out)); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestRegistryShape: names unique, every entry describes what it
// reproduces and can run, and the order is the menu users know.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, e := range tagger.Experiments() {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		if e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q: empty Paper or nil Run", e.Name)
		}
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != strings.Join(menu, ",") {
		t.Errorf("registry order\n got %v\nwant %v", names, menu)
	}
}

// docSection returns the text of a repo-root file between two markers.
func docSection(t *testing.T, path, from, to string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", path))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), from)
	if !ok {
		t.Fatalf("%s: marker %q not found", path, from)
	}
	body, _, _ := strings.Cut(rest, to)
	return body
}

// TestDocsListEveryExperiment is the drift guard: the Makefile's
// `experiments` target and EXPERIMENTS.md's regenerate block must name
// every registry entry, so a 16th experiment cannot be added to the
// table and forgotten everywhere else.
func TestDocsListEveryExperiment(t *testing.T) {
	target := docSection(t, "Makefile", "\nexperiments:\n", "\n\n")
	regen := docSection(t, "EXPERIMENTS.md", "Regenerate everything with:", "```\n\n")
	for _, e := range tagger.Experiments() {
		if !strings.Contains(target, "-exp "+e.Name+"\n") && !strings.Contains(target, "-exp "+e.Name+" ") {
			t.Errorf("Makefile `experiments` target does not run -exp %s", e.Name)
		}
		if !strings.Contains(regen, "-exp "+e.Name+"\n") && !strings.Contains(regen, "-exp "+e.Name+" ") {
			t.Errorf("EXPERIMENTS.md regenerate block does not list -exp %s", e.Name)
		}
	}
}

// TestDocsListEveryModule is the module-map drift guard: DESIGN.md §3 and
// README's architecture tree must each name every package directory under
// internal/ and cmd/, and every internal/, cmd/ or examples/ path either
// of them names must be a directory that exists.
func TestDocsListEveryModule(t *testing.T) {
	root := filepath.Join("..", "..")
	var pkgs []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) > 0 {
				rel, _ := filepath.Rel(root, path)
				pkgs = append(pkgs, filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	module := regexp.MustCompile(`\b(?:internal|cmd|examples)(?:/[a-z0-9-]+)+`)
	for _, doc := range []struct{ name, body string }{
		{"DESIGN.md §3", docSection(t, "DESIGN.md", "## 3. System inventory", "\n## 4.")},
		{"README.md's tree", docSection(t, "README.md", "## Architecture", "\n## ")},
	} {
		named := map[string]bool{}
		for _, m := range module.FindAllString(doc.body, -1) {
			named[m] = true
		}
		for _, p := range pkgs {
			if !named[p] {
				t.Errorf("%s does not list %s", doc.name, p)
			}
		}
		for m := range named {
			if fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(m))); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory of this repository", doc.name, m)
			}
		}
	}
}

// TestUsageErrors: an unknown experiment answers with the menu, and a
// flag given to an experiment that does not consume it is rejected —
// naming the experiments that do — instead of silently dropped. Both
// are usage errors (exit 2) and nothing runs: no file is created.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig13"}, "valid experiments: fig10, fig11"},
		{[]string{"-exp", "overhead", "-trace", "x.trc"}, "-trace is not used by -exp overhead; experiments that take it: fig10, fig11, fig12, chaos, churn"},
		{[]string{"-exp", "chaos", "-flightrec"}, "-flightrec is not used by -exp chaos; experiments that take it: fig10, fig11, fig12, detect"},
		{[]string{"-exp", "fig10", "-days", "2"}, "-days is not used by -exp fig10; experiments that take it: table1"},
		{[]string{"-exp", "budget", "-per-day", "5"}, "-per-day is not used by -exp budget"},
		{[]string{"-exp", "fig12", "-seeds", "4"}, "-seeds is not used by -exp fig12; experiments that take it: chaos, churn, detect"},
		{[]string{"-exp", "recovery", "-runs", "4"}, "-runs is not used by -exp recovery"},
		{[]string{"-exp", "churn", "-par", "4"}, "-par is not used by -exp churn; experiments that take it: chaos, detect"},
	} {
		dir := t.TempDir()
		out, err := runIn(t, dir, tagger.Experiments(), c.args...)
		var usage usageError
		if !errors.As(err, &usage) {
			t.Errorf("%v: err = %v, want a usageError", c.args, err)
			continue
		}
		if !strings.Contains(usage.Error(), c.want) {
			t.Errorf("%v: message %q does not contain %q", c.args, usage, c.want)
		}
		if left, _ := os.ReadDir(dir); out != "" || len(left) != 0 {
			t.Errorf("%v: rejected command still ran (stdout %q, %d files)", c.args, out, len(left))
		}
	}
}

// TestFailureUnwindsThroughDefers: an experiment that returns an error
// is an ordinary (exit 1) failure, its partial report is still printed,
// and it fails after the deferred flushes — the CPU profile is complete
// on disk and the trace file it opened has been closed for it.
func TestFailureUnwindsThroughDefers(t *testing.T) {
	var sink io.WriteCloser
	boom := errors.New("invariant violated")
	exps := append(tagger.Experiments(), tagger.Experiment{
		Name: "boom", Paper: "test", Accepts: []string{"trace"},
		Run: func(o tagger.RunOptions) (tagger.Report, error) {
			w, err := o.OpenTrace(o.Trace)
			if err != nil {
				return tagger.Report{}, err
			}
			sink = w
			io.WriteString(w, "partial trace\n")
			return tagger.Report{}, boom
		},
	})
	dir := t.TempDir()
	_, err := runIn(t, dir, exps, "-exp", "boom", "-trace", "boom.trc", "-cpuprofile", "cpu.prof")
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the experiment's error", err)
	}
	if errors.As(err, new(usageError)) {
		t.Error("a failing experiment reported as a usage error")
	}
	if st, err := os.Stat(filepath.Join(dir, "cpu.prof")); err != nil || st.Size() == 0 {
		t.Errorf("CPU profile missing or empty after a failing run (%v)", err)
	}
	if _, err := io.WriteString(sink, "x"); !errors.Is(err, os.ErrClosed) {
		t.Errorf("trace file still open after a failing run (write err = %v)", err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "boom.trc")); string(b) != "partial trace\n" {
		t.Errorf("trace tail lost: %q", b)
	}
}

// TestTracedSweepParIndependent: a traced chaos sweep fans its soaks
// over -par workers like an untraced one — every soak owns its capture
// file, the trace-file factory is shared — and stdout and the captures
// are the same bytes as the serial sweep (run under -race by `make race`).
func TestTracedSweepParIndependent(t *testing.T) {
	serial, par := t.TempDir(), t.TempDir()
	args := []string{"-exp", "chaos", "-seeds", "2", "-trace", "c.trc"}
	want, err := runIn(t, serial, tagger.Experiments(), append(args, "-par", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runIn(t, par, tagger.Experiments(), append(args, "-par", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("-par 2 stdout diverges from -par 1:\n%s\nvs\n%s", got, want)
	}
	for _, f := range []string{"c.trc.seed1.with", "c.trc.seed1.without", "c.trc.seed2.with", "c.trc.seed2.without"} {
		a, err := os.ReadFile(filepath.Join(serial, f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(par, f))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: %d bytes serial vs %d bytes parallel, or empty", f, len(a), len(b))
		}
	}
}
