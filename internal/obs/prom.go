package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"predrm/internal/telemetry"
)

// Prometheus text exposition (version 0.0.4) rendering of a
// telemetry.Snapshot.
//
// Instrument names in this repository are dotted ("sim.solver_seconds",
// "exact.cache.hits"); the exposition format only allows
// [a-zA-Z_:][a-zA-Z0-9_:]*, so names are sanitised by mapping every
// disallowed character to '_' and prefixing '_' when the first character
// is a digit. The original dotted name is preserved in the HELP line so
// scrapes stay attributable to registry instruments. Two registry names
// that collide after sanitisation ("a.b" and "a_b") would yield duplicate
// families; the repository's instrument namespace avoids this and the
// exposition validator in the package tests rejects it.

// ContentType is the Content-Type an HTTP handler should declare for
// WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// SanitizeMetricName maps an instrument name into the exposition
// format's metric-name charset.
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	out := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// formatValue renders a sample value. Prometheus accepts Go's scientific
// notation as well as the literals +Inf, -Inf and NaN, which FormatFloat
// produces for the special values.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders s in Prometheus text exposition format:
// counters and gauges as their native types (gauge high-water marks as an
// extra <name>_max gauge), histograms with cumulative _bucket series, _sum
// and _count. Families are emitted in sorted name order so output is
// deterministic for a given snapshot. A nil snapshot renders nothing.
func WritePrometheus(w io.Writer, s *telemetry.Snapshot) error {
	if s == nil {
		return nil
	}
	for _, name := range sortedKeys(s.Counters) {
		m := SanitizeMetricName(name)
		if err := writeHeader(w, m, "counter", name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", m, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		m := SanitizeMetricName(name)
		if err := writeHeader(w, m, "gauge", name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m, formatValue(g.Value)); err != nil {
			return err
		}
		if err := writeHeader(w, m+"_max", "gauge", name+" high-water mark"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_max %s\n", m, formatValue(g.Max)); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		m := SanitizeMetricName(name)
		if err := writeHeader(w, m, "histogram", name); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m, formatValue(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", m, formatValue(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count %d\n", m, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeHeader emits the HELP/TYPE comment pair for one family. The HELP
// text carries the original dotted instrument name; backslashes and
// newlines (illegal unescaped in HELP) cannot occur in registry names.
func writeHeader(w io.Writer, metric, kind, help string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s %s\n", metric, kind, help); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", metric, kind)
	return err
}

// sortedKeys returns m's keys ordered by their sanitised metric name (ties
// broken by the raw name) so families render deterministically and grouped
// the way a scraper sees them.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := SanitizeMetricName(keys[i]), SanitizeMetricName(keys[j])
		if a != b {
			return a < b
		}
		return keys[i] < keys[j]
	})
	return keys
}

// inf guards against NaN leaking into JSON encoders; used by statusz.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}
