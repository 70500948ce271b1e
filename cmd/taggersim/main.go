// Command taggersim runs the paper's testbed experiments in the packet
// simulator and prints what each one measured. The experiments are the
// entries of tagger.Experiments() — `taggersim -h` lists all of them —
// and this command is only flags -> lookup -> Run -> print -> exit code.
//
//	taggersim -exp fig10                   # Figure 10, without and with Tagger
//	taggersim -exp table1 -days 7          # Table 1 reroute measurement
//	taggersim -exp chaos -runs 32 -par 8   # seeded chaos sweep, 8 workers
//	taggersim -exp fig10 -trace f10.trc    # + event trace for taggertrace
//	taggersim -exp detect -flightrec       # + flight-recorder incident capture
//
// A flag the chosen experiment does not consume (-trace on overhead, say)
// is a usage error, exit 2, not a silent no-op; an experiment whose
// invariants fail exits 1 after the profiles, the trace files and the
// ops endpoint have been flushed and closed.
//
// -flightrec (figures and detect) arms the always-on flight recorder:
// deadlock onset, a detector firing, or a lossless-invariant violation
// freezes the in-memory event ring and dumps a self-contained incident
// file under incidents/ for `taggertrace postmortem`. Captures are
// deterministic — same seed, same bytes, par=1 or par=N.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"

	tagger "repro"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("taggersim: ")
	err := run(os.Args[1:], os.Stdout, tagger.Experiments())
	var usage usageError
	if errors.As(err, &usage) {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// usageError is a command line the experiment table rejects: exit 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the whole command. Every failure is returned, never exited on,
// so the deferred profile stop, trace-file closes and ops shutdown run on
// exactly the invocations where an invariant failed.
func run(args []string, stdout io.Writer, exps []tagger.Experiment) (err error) {
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	menu := strings.Join(names, ", ")

	fs := flag.NewFlagSet("taggersim", flag.ExitOnError)
	var (
		exp       = fs.String("exp", "fig10", "experiment: "+menu)
		seeds     = fs.Int("seeds", 3, "chaos: number of fault schedules to run (seeds 1..n)")
		runs      = fs.Int("runs", 0, "chaos: number of seeded runs in the sweep (overrides -seeds)")
		par       = fs.Int("par", 1, "chaos: sweep worker count (0 = GOMAXPROCS); results are par-independent")
		days      = fs.Int("days", 7, "table1: days to simulate")
		perDay    = fs.Int64("per-day", 1_000_000, "table1: measurements per day")
		trace     = fs.String("trace", "", "write a TGL1 binary event trace to this file (figures: one file; chaos/churn: one file per seed)")
		flightrec = fs.Bool("flightrec", false, "figures/detect: arm the flight recorder; incidents dump to incidents/*.tgl for `taggertrace postmortem`")
		ops       = fs.String("ops", "", "serve /metrics, /healthz and /debug/pprof on this address; the process stays up after the run until interrupted (e.g. :8080)")
	)
	prof := profile.AddFlags(fs)
	fs.Parse(args)

	i := slices.Index(names, *exp)
	if i < 0 {
		return usageError(fmt.Sprintf("unknown experiment %q; valid experiments: %s", *exp, menu))
	}
	e := exps[i]

	// A flag some experiment consumes, given to one that does not, would
	// be dropped on the floor: a requested capture that never happened
	// must not read as success.
	opt := tagger.RunOptions{Par: *par, Days: *days, PerDay: *perDay, Trace: *trace}
	fs.Visit(func(f *flag.Flag) {
		var takers []string
		for _, x := range exps {
			if slices.Contains(x.Accepts, f.Name) {
				takers = append(takers, x.Name)
			}
		}
		if len(takers) > 0 && !slices.Contains(e.Accepts, f.Name) && err == nil {
			err = usageError(fmt.Sprintf("-%s is not used by -exp %s; experiments that take it: %s",
				f.Name, e.Name, strings.Join(takers, ", ")))
		}
		if f.Name == "seeds" {
			opt.Seeds = *seeds
		}
	})
	if err != nil {
		return err
	}
	if *runs > 0 {
		opt.Seeds = *runs
	}
	if *flightrec {
		opt.FlightRec = &tagger.FlightRecConfig{}
	}

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	// Trace files are created here, not by the experiment, so they are
	// closed on every way out (a second Close is a harmless error).
	var mu sync.Mutex
	var sinks []io.Closer
	defer func() {
		for _, c := range sinks {
			c.Close()
		}
	}()
	opt.OpenTrace = func(path string) (io.WriteCloser, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		sinks = append(sinks, f)
		return f, nil
	}

	// With -ops the run's operational registry — the chaos soak's
	// simulator histograms and deployment counters, the detect matrix's
	// per-arm counters — is served alongside telemetry.Default (which
	// holds the synthesis spans).
	var srv *telemetry.OpsServer
	if *ops != "" {
		opt.Ops = telemetry.NewRegistry()
		if srv, err = telemetry.StartOps(*ops, telemetry.Default, opt.Ops); err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("ops endpoint on http://%s (metrics, healthz, debug/pprof)", srv.Addr())
	}

	rep, err := e.Run(opt)
	fmt.Fprint(stdout, rep)
	if err == nil && srv != nil {
		log.Printf("run finished; ops endpoint still serving on http://%s — interrupt to exit", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	return err
}
