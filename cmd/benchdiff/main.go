// Command benchdiff records and compares benchmark snapshots.
//
// Record mode parses `go test -bench -benchmem` text (stdin or a file)
// into a JSON snapshot:
//
//	go test -bench . -benchmem | benchdiff -record BENCH_2026-08-05.json
//	benchdiff -record BENCH_seed.json bench_seed.txt
//
// Compare mode diffs two snapshots and exits 1 when any benchmark's
// ns/op grew beyond the threshold (default 15%):
//
//	benchdiff BENCH_seed.json BENCH_2026-08-05.json
//	benchdiff -threshold 0.30 old.json new.json
//
// With -alloc-threshold set, allocs/op and bytes/op are gated too; a
// benchmark that was allocation-free in the baseline fails on any
// allocation at all:
//
//	benchdiff -alloc-threshold 0.10 old.json new.json
//
// Snapshots taken on different CPUs (the `cpu:` line `go test` prints)
// are refused unless -force is given. Benchmarks the baseline has and the
// new snapshot lacks are listed: they have left the gate. A "note" in a
// snapshot's context — a caveat added by hand after recording — is
// printed with every comparison the snapshot takes part in.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	var (
		record    = flag.String("record", "", "parse benchmark text into this JSON snapshot instead of comparing")
		threshold = flag.Float64("threshold", 0.15, "time regression tolerance (0.15 = +15%)")
		allocThr  = flag.Float64("alloc-threshold", -1, "allocs/op and bytes/op regression tolerance; negative disables the allocation gate")
		force     = flag.Bool("force", false, "compare even when the snapshots were taken on different CPUs")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchdiff -record out.json [bench.txt]\n       benchdiff [-threshold 0.15] [-alloc-threshold 0.10] [-force] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *record != "" {
		if err := recordSnapshot(*record, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}

	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := benchfmt.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	cur, err := benchfmt.ReadFile(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := benchfmt.SameCPU(old, cur); err != nil {
		if !*force {
			log.Fatalf("%v (-force compares anyway)", err)
		}
		log.Printf("warning: %v", err)
	}
	// A caveat written into a snapshot's context by hand (the machine was
	// busy while it was recorded, say) goes with every comparison it is in.
	for i, f := range []*benchfmt.File{old, cur} {
		if note := f.Context["note"]; note != "" {
			log.Printf("note in %s: %s", flag.Arg(i), note)
		}
	}
	deltas := benchfmt.Compare(old, cur, *threshold, *allocThr)
	if len(deltas) == 0 {
		log.Fatalf("no common benchmarks between %s and %s", flag.Arg(0), flag.Arg(1))
	}
	fmt.Print(benchfmt.FormatDeltas(deltas))
	for _, name := range benchfmt.OnlyInBaseline(old, cur) {
		fmt.Printf("only in baseline, not gated: %s\n", name)
	}
	if benchfmt.AnyRegression(deltas) {
		log.Fatalf("regression beyond threshold (time %.0f%%, alloc %.0f%%)", *threshold*100, *allocThr*100)
	}
	fmt.Printf("ok: %d benchmarks within %.0f%% of baseline\n", len(deltas), *threshold*100)
}

func recordSnapshot(out string, args []string) error {
	in := io.Reader(os.Stdin)
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if len(args) > 1 {
		return fmt.Errorf("record mode takes at most one input file, got %d", len(args))
	}
	snap, err := benchfmt.Parse(in)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	// A -count N run repeats every name; keep each benchmark's fastest
	// run so snapshots stay one-record-per-name and noise-robust.
	snap.Dedupe()
	if err := benchfmt.WriteFile(out, snap); err != nil {
		return err
	}
	fmt.Printf("recorded %d benchmarks to %s\n", len(snap.Benchmarks), out)
	return nil
}
