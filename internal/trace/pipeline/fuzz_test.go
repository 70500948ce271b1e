package pipeline

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzOpen drives arbitrary bytes through the taggertrace report path:
// Open(FormatAuto), Normalize, Summary, Report. It must never panic,
// and a JSONL stream the scanner read to the end must account for
// every non-blank line: each one either decoded into an event or
// counted as skipped.
func FuzzOpen(f *testing.F) {
	for _, name := range []string{"fig10.jsonl", "fig10.bin"} {
		data, err := os.ReadFile("../../../cmd/taggertrace/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{\"t\":1,\"kind\":\"pause\",\"node\":\"S1\"}\n\n  \r\n{bad\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := Open(bytes.NewReader(data), FormatAuto)
		if err != nil {
			return // a malformed binary header is a clean refusal
		}
		norm, sum := &Normalize{}, NewSummary()
		runErr := Run(src, []Stage{norm}, sum)
		sum.Report(io.Discard, 10, src.Skipped()+norm.Dropped)
		if _, ok := src.(*JSONLSource); !ok || runErr != nil {
			return
		}
		var lines int64
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if decoded := sum.Events + norm.Dropped; decoded+src.Skipped() != lines {
			t.Fatalf("%d decoded + %d skipped != %d non-blank lines", decoded, src.Skipped(), lines)
		}
	})
}
