package telemetry

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Date", "Total No.", "Prob")
	tb.AddRow("1/1/2017", 1234567, 3.0e-5)
	tb.AddRow("1/2/2017", 89, 0.25)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Date") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator: %q", lines[1])
	}
	if !strings.Contains(lines[2], "1234567") || !strings.Contains(lines[2], "3e-05") {
		t.Errorf("row: %q", lines[2])
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("misaligned header/separator: %d vs %d", len(lines[0]), len(lines[1]))
	}
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

// TestTableRaggedRows pins the fix for the ragged-row panic: a row with
// more cells than the header used to index past the width slice inside
// writeRow. Wider and narrower rows must both render.
func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("one", "two", "three", "four") // wider than the header
	tb.AddRow("solo")                        // narrower than the header
	tb.AddRow("x", "y")
	out := tb.String() // pre-fix: panic (index out of range)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[2], "three") || !strings.Contains(lines[2], "four") {
		t.Errorf("wide row lost cells: %q", lines[2])
	}
	if strings.TrimRight(lines[3], " ") != "solo" {
		t.Errorf("narrow row: %q", lines[3])
	}
	// Shared columns still align: col 0 pads to len("solo") plus the
	// two-space separator before "y".
	if !strings.HasPrefix(lines[4], "x     y") {
		t.Errorf("alignment after ragged rows: %q", lines[4])
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 0) != "" {
		t.Error("empty series")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4}, 4)
	if len([]rune(s)) != 5 {
		t.Fatalf("length: %q", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[4] != '█' {
		t.Errorf("endpoints: %q", s)
	}
	// Auto-max.
	s2 := Sparkline([]float64{2, 4}, 0)
	if []rune(s2)[1] != '█' {
		t.Errorf("auto-max: %q", s2)
	}
	// All zero does not divide by zero.
	if Sparkline([]float64{0, 0}, 0) == "" {
		t.Error("zero series should render")
	}
	// Out-of-range values clamp.
	s3 := Sparkline([]float64{10}, 4)
	if []rune(s3)[0] != '█' {
		t.Errorf("clamp: %q", s3)
	}
}
