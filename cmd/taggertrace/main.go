// Command taggertrace analyzes an event trace — the TGL1 binary capture
// `taggersim -trace <file>` writes, or JSON lines — through a staged
// streaming pipeline: ingest → normalize → metric computation → report.
// Batches are bounded, so arbitrarily large captures analyze in
// constant memory.
//
// Usage:
//
//	taggersim -exp fig10 -trace /tmp/fig10.trc
//	taggertrace /tmp/fig10.trc                # format auto-sniffed
//	taggertrace -o jsonl /tmp/fig10.trc       # export as JSONL
//	taggertrace postmortem incident.tgl       # flight-recorder forensics
//
// The postmortem subcommand (equivalently `-o postmortem`) runs the
// forensics pipeline over a flight-recorder incident capture
// (`taggersim -flightrec`): it reconstructs the wait-for cycle from
// the frozen snapshot, attributes the queued bytes hop by hop to flows
// and TCAM rules, and lays out the onset timeline.
//
// Malformed input (log shippers sometimes interleave writes) is skipped
// and counted, not fatal: the remaining events still tell the story.
// A binary trace that ends mid-record (a crashed simulator leaves a
// partial tail) is analyzed the same way but exits nonzero, because a
// torn capture's totals undercount the run; pass -allow-truncated to
// accept it, as when salvaging whatever a crash left behind.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/trace"
	"repro/internal/trace/pipeline"
)

// run wires the pipeline for one invocation: ingest r in format,
// normalize, then either fold metrics and render the report or re-emit
// the stream as JSONL. The returned Diag carries what was lost to
// damage: ingest skips + normalize drops, the subset with unknown
// kinds, and whether a binary stream ended mid-record.
func run(r io.Reader, w io.Writer, format, output string, top int) (pipeline.Diag, error) {
	src, err := pipeline.Open(r, format)
	if err != nil {
		return pipeline.Diag{}, err
	}
	norm := &pipeline.Normalize{}
	stages := []pipeline.Stage{norm}
	diag := func() pipeline.Diag {
		d := pipeline.Diag{Skipped: src.Skipped() + norm.Dropped}
		if bs, ok := src.(*pipeline.BinarySource); ok {
			d.Alien = bs.Alien()
			d.Truncated = bs.Truncated()
		}
		return d
	}
	switch output {
	case "report":
		sum := pipeline.NewSummary()
		if err := pipeline.Run(src, stages, sum); err != nil {
			return diag(), err
		}
		sum.ReportDiag(w, top, diag())
	case "jsonl":
		if err := pipeline.Run(src, stages, pipeline.NewJSONLSink(w)); err != nil {
			return diag(), err
		}
	case "postmortem":
		pm := pipeline.NewPostmortem()
		if err := pipeline.Run(src, stages, pm); err != nil {
			return diag(), err
		}
		var snap *trace.Snapshot
		if bs, ok := src.(*pipeline.BinarySource); ok {
			snap = bs.Snapshot()
		}
		pm.Render(w, snap, diag())
	default:
		return pipeline.Diag{}, fmt.Errorf("unknown output %q (want report, jsonl or postmortem)", output)
	}
	return diag(), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("taggertrace: ")
	top := flag.Int("top", 10, "links to show in the per-link tables")
	format := flag.String("format", pipeline.FormatAuto, "input format: auto, binary or jsonl")
	output := flag.String("o", "report", "output: report (human summary), jsonl (re-emit the event stream) or postmortem (flight-recorder forensics)")
	allowTrunc := flag.Bool("allow-truncated", false, "exit zero even if the binary trace ends mid-record")
	argv := os.Args[1:]
	if len(argv) > 0 && argv[0] == "postmortem" {
		argv = append([]string{"-o", "postmortem"}, argv[1:]...)
	}
	flag.CommandLine.Parse(argv)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: taggertrace [postmortem] [-top N] [-format auto|binary|jsonl] [-o report|jsonl|postmortem] [-allow-truncated] <trace>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	diag, err := run(f, os.Stdout, *format, *output, *top)
	if err != nil {
		log.Fatal(err)
	}
	if diag.Skipped > 0 {
		log.Printf("warning: skipped %d malformed lines (%d with unknown kinds)", diag.Skipped, diag.Alien)
	}
	if diag.Truncated {
		log.Printf("warning: trace truncated mid-record")
		if !*allowTrunc {
			os.Exit(1)
		}
	}
}
