package pipeline

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/trace"
)

// JSONLSink is the export stage: it re-emits the event stream as JSON
// lines, one json-encoded trace.Event (the simulator's TraceEvent) each.
// `taggertrace -o jsonl` uses it to export binary captures for tools
// that speak JSONL, and the engine goldens hash its output.
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLSink buffers writes to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Consume implements Sink.
func (s *JSONLSink) Consume(batch []trace.Event) error {
	for i := range batch {
		if err := s.enc.Encode(&batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Sink.
func (s *JSONLSink) Close() error { return s.bw.Flush() }
