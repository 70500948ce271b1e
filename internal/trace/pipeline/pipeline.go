// Package pipeline is the staged, streaming trace-analysis engine
// behind cmd/taggertrace. A run is a chain
//
//	Source (ingest) → Stage... (normalize, ...) → Sink... (metrics, export)
//
// pumped in bounded batches: the driver reuses one batch buffer, every
// stage transforms a batch in place or filters it, and sinks fold
// batches into whatever they accumulate (a metrics summary holds
// per-link state, a JSONL exporter holds nothing). Memory is bounded
// by the batch size plus the number of distinct links/flows — never by
// the number of events — so a hundred-million-event soak streams
// through the same few megabytes as a figure run.
//
// Each piece is independently testable and chainable (the mpat
// pipeline decomposition): a Source is anything that yields event
// batches, a Stage anything that rewrites them, a Sink anything that
// consumes them. cmd/taggertrace is just flag parsing around Run.
package pipeline

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// DefaultBatch is the number of events pumped per driver iteration. Run
// allocates one buffer of this size per call (32 KiB of trace.Event),
// so a short capture pays little for it.
const DefaultBatch = 256

// Source yields successive bounded batches of events.
type Source interface {
	// Next appends up to cap(buf)-len(buf) events to buf and returns
	// it. It reports io.EOF (possibly alongside a final partial batch)
	// when the stream ends; undecodable input is skipped and counted,
	// never an error.
	Next(buf []trace.Event) ([]trace.Event, error)
	// Skipped counts malformed or truncated records passed over.
	Skipped() int64
}

// Stage transforms one batch: filtering, rewriting, annotating. A
// stage must not retain the batch slice across calls.
type Stage interface {
	// Name labels the stage in errors.
	Name() string
	// Process returns the surviving events (it may edit or reslice
	// batch in place).
	Process(batch []trace.Event) ([]trace.Event, error)
}

// Sink consumes fully-processed batches. Close finalizes (flushes an
// export, seals a summary) and is called exactly once by Run.
type Sink interface {
	Consume(batch []trace.Event) error
	Close() error
}

// Run pumps src through the stages into every sink until the source is
// exhausted, then closes the sinks. The first stage or sink error
// aborts the run (sinks are still closed; the source's skip counters
// remain valid for partial reporting).
func Run(src Source, stages []Stage, sinks ...Sink) error {
	buf := make([]trace.Event, 0, DefaultBatch)
	var runErr error
pump:
	for {
		batch, err := src.Next(buf[:0])
		buf = batch[:0]
		if len(batch) > 0 {
			for _, st := range stages {
				if batch, runErr = st.Process(batch); runErr != nil {
					runErr = fmt.Errorf("stage %s: %w", st.Name(), runErr)
					break pump
				}
			}
			for _, sk := range sinks {
				if runErr = sk.Consume(batch); runErr != nil {
					break pump
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			runErr = err
			break
		}
	}
	for _, sk := range sinks {
		if err := sk.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}
