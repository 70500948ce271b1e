package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SanitizeName maps an internal metric name onto the Prometheus
// identifier charset [a-zA-Z0-9_:], so legacy dotted names
// ("deploy.install.fail") expose as valid families
// ("deploy_install_fail"). A leading digit gains an underscore prefix.
func SanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatLabels renders a canonical {k="v",...} block ("" when empty).
// extra, when non-empty, is appended verbatim as a pre-rendered pair
// (the histogram le label).
func formatLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(SanitizeName(l.K))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.V))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the Prometheus way: shortest round-trip
// representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Families are sorted by exposed name, each
// preceded by a # TYPE line; within a family, series keep the snapshot's
// deterministic label order. Histograms emit cumulative le buckets plus
// the +Inf bucket, _sum and _count.
func WritePrometheus(w io.Writer, s Snapshot) error {
	type series struct {
		kind  string // "counter", "gauge", "histogram"
		lines []string
	}
	families := map[string]*series{}
	add := func(name, kind, line string) error {
		f, ok := families[name]
		if !ok {
			f = &series{kind: kind}
			families[name] = f
		} else if f.kind != kind {
			return fmt.Errorf("telemetry: metric %q exported as both %s and %s", name, f.kind, kind)
		}
		f.lines = append(f.lines, line)
		return nil
	}

	for _, c := range s.Counters {
		name := SanitizeName(c.Name)
		if err := add(name, "counter",
			fmt.Sprintf("%s%s %d", name, formatLabels(c.Labels, ""), c.Value)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		name := SanitizeName(g.Name)
		if err := add(name, "gauge",
			fmt.Sprintf("%s%s %s", name, formatLabels(g.Labels, ""), formatFloat(g.Value))); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		name := SanitizeName(h.Name)
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatFloat(h.Bounds[i])
			}
			line := fmt.Sprintf("%s_bucket%s %d", name,
				formatLabels(h.Labels, `le="`+le+`"`), cum)
			if err := add(name, "histogram", line); err != nil {
				return err
			}
		}
		if err := add(name, "histogram", fmt.Sprintf("%s_sum%s %s",
			name, formatLabels(h.Labels, ""), formatFloat(h.Sum))); err != nil {
			return err
		}
		if err := add(name, "histogram", fmt.Sprintf("%s_count%s %d",
			name, formatLabels(h.Labels, ""), h.Count)); err != nil {
			return err
		}
	}

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := families[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
