package provobs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders registries in the Prometheus text exposition format
// (version 0.0.4): one HELP and one TYPE line per family, then one sample
// line per series — counters and gauges as single samples, histograms as
// cumulative _bucket series plus _sum and _count. Output is deterministic
// (families and series sorted) so the CI lint can diff scrapes and the
// tests can assert exact lines.

// A Unit says how a histogram's raw int64 observations are scaled for
// exposition.
type Unit int

const (
	// UnitCount exposes raw observed values (records per stream).
	UnitCount Unit = iota
	// UnitSeconds exposes nanosecond observations as seconds — the
	// Prometheus base unit for *_seconds histogram families.
	UnitSeconds
)

// scale returns the exposition multiplier.
func (u Unit) scale() float64 {
	if u == UnitSeconds {
		return 1e-9
	}
	return 1
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders a label set as `k1="v1",k2="v2"` ("" when empty).
func labelString(labels []label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, escapeLabel(l.Value))
	}
	return strings.Join(parts, ",")
}

// sample renders one exposition line: name, optional label set, value.
func sample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// joinLabels appends an extra pair ("le") to a rendered label set.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// WritePrometheus renders every family of every registry, families sorted
// by name across registries and series sorted by label set within each
// family. A family that appears in several registries is one block (HELP and
// TYPE emitted once), and series of it with the same label set — one per
// shard of a sharded store — are one sample: scalars add, histograms add
// bucket by bucket.
func WritePrometheus(w io.Writer, regs ...*Registry) {
	merged := make(map[string]*family)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, f := range r.families() {
			if m := merged[f.name]; m != nil {
				m.ser = append(m.ser, f.ser...)
			} else {
				merged[f.name] = f
			}
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writeFamily(w, merged[name])
	}
}

// writeFamily renders one HELP/TYPE block and its series.
func writeFamily(w io.Writer, f *family) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	byLabels := make(map[string][]*series)
	for _, s := range f.ser {
		labels := labelString(s.meta.labels)
		byLabels[labels] = append(byLabels[labels], s)
	}
	keys := make([]string, 0, len(byLabels))
	for labels := range byLabels {
		keys = append(keys, labels)
	}
	sort.Strings(keys)
	for _, labels := range keys {
		if f.kind != kindHistogram {
			var v int64
			for _, s := range byLabels[labels] {
				v += s.load()
			}
			sample(w, f.name, labels, strconv.FormatInt(v, 10))
			continue
		}
		var sum histSnapshot
		for _, s := range byLabels[labels] {
			sum.add(s.h.snapshot())
		}
		writeHistogram(w, f, labels, sum)
	}
}

// writeHistogram renders one series' cumulative buckets, sum and count.
// Bucket 0 is always emitted (so every series carries at least one finite
// le even before its first observation), then every bucket that holds
// observations; empty intermediate buckets add no information to a
// cumulative histogram and are elided to keep the exposition small.
// A bucket line whose native (non-cumulative) bucket holds an exemplar
// gains an OpenMetrics-style suffix after the value:
//
//	name_bucket{le="0.001"} 17 # {trace_id="9f2c51e0a4b7d803"} 0.00083
//
// linking the bucket to a trace retrievable from GET /v1/traces/{id}.
func writeHistogram(w io.Writer, f *family, labels string, s histSnapshot) {
	scale := f.unit.scale()
	cum := int64(0)
	for i, c := range s.Bucket {
		if c == 0 && i != 0 {
			continue
		}
		cum += c
		le := fmt.Sprintf("le=%q", formatFloat(upperBound(i)*scale))
		value := strconv.FormatInt(cum, 10)
		if s.Exemplars != nil && s.Exemplars[i] != nil && c > 0 {
			e := s.Exemplars[i]
			value += fmt.Sprintf(" # {trace_id=%q} %s", escapeLabel(e.TraceID),
				formatFloat(float64(e.Value)*scale))
		}
		sample(w, f.name+"_bucket", joinLabels(labels, le), value)
	}
	sample(w, f.name+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatInt(s.Count, 10))
	sample(w, f.name+"_sum", labels, formatFloat(float64(s.Sum)*scale))
	sample(w, f.name+"_count", labels, strconv.FormatInt(s.Count, 10))
}
