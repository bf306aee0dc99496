package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks a Prometheus text-exposition stream against
// the format rules this repository relies on, returning one error per
// violation (nil for a clean stream). It is deliberately a validator, not
// a full parser: it enforces
//
//   - metric-name charset ([a-zA-Z_:][a-zA-Z0-9_:]*) on HELP, TYPE and
//     sample lines;
//   - at most one TYPE per family, declared before the family's samples,
//     with a known type keyword;
//   - every sample belongs to a family with HELP and TYPE lines
//     (histogram _bucket/_sum/_count samples resolve to their base name);
//   - parseable sample values and le labels;
//   - histogram coherence: le values strictly increasing, cumulative
//     bucket counts non-decreasing, a closing le="+Inf" bucket whose count
//     equals <name>_count;
//   - no duplicate samples (same name and label set).
//
// Tests use it against WritePrometheus output and on the /metrics of a
// live server.
func ValidateExposition(r io.Reader) []error {
	var errs []error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	typeOf := make(map[string]string)   // family -> declared type
	helped := make(map[string]bool)     // family -> HELP seen
	sampled := make(map[string]bool)    // family -> sample seen
	seenSample := make(map[string]bool) // name+labels -> dup detection
	hists := make(map[string]*histCheck)

	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			kind, name, rest, ok := parseComment(text)
			if !ok {
				continue // free-form comment: legal, ignored
			}
			if !validMetricName(name) {
				errs = append(errs, fmt.Errorf("line %d: %s for invalid metric name %q", line, kind, name))
				continue
			}
			switch kind {
			case "HELP":
				helped[name] = true
			case "TYPE":
				if _, dup := typeOf[name]; dup {
					errs = append(errs, fmt.Errorf("line %d: duplicate TYPE for %q", line, name))
					continue
				}
				if sampled[name] {
					errs = append(errs, fmt.Errorf("line %d: TYPE for %q after its samples", line, name))
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					typeOf[name] = rest
				default:
					errs = append(errs, fmt.Errorf("line %d: unknown type %q for %q", line, rest, name))
				}
			}
			continue
		}

		name, labels, value, err := parseSample(text)
		if err != nil {
			errs = append(errs, fmt.Errorf("line %d: %v", line, err))
			continue
		}
		if !validMetricName(name) {
			errs = append(errs, fmt.Errorf("line %d: invalid metric name %q", line, name))
			continue
		}
		key := name + "{" + labels + "}"
		if seenSample[key] {
			errs = append(errs, fmt.Errorf("line %d: duplicate sample %s", line, key))
		}
		seenSample[key] = true

		family := name
		if base, suffix := histFamily(name, typeOf); base != "" {
			family = base
			hc := hists[base]
			if hc == nil {
				hc = &histCheck{}
				hists[base] = hc
			}
			switch suffix {
			case "_bucket":
				le, err := parseLE(labels)
				if err != nil {
					errs = append(errs, fmt.Errorf("line %d: %s: %v", line, name, err))
					break
				}
				hc.les = append(hc.les, le)
				hc.counts = append(hc.counts, value)
				hc.bucketLine = line
			case "_count":
				hc.count = value
				hc.hasCount = true
			}
		}
		sampled[family] = true
		if _, ok := typeOf[family]; !ok {
			errs = append(errs, fmt.Errorf("line %d: sample %q has no preceding TYPE for family %q", line, name, family))
		}
		if !helped[family] {
			errs = append(errs, fmt.Errorf("line %d: sample %q has no HELP for family %q", line, name, family))
		}
	}
	if err := sc.Err(); err != nil {
		return append(errs, fmt.Errorf("read: %w", err))
	}

	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		errs = append(errs, hists[name].validate(name)...)
	}
	return errs
}

// histCheck accumulates one histogram family's buckets for coherence
// checking after the stream is fully read.
type histCheck struct {
	les        []float64
	counts     []float64
	count      float64
	hasCount   bool
	bucketLine int
}

func (h *histCheck) validate(name string) []error {
	var errs []error
	if len(h.les) == 0 {
		return []error{fmt.Errorf("histogram %q has no _bucket samples", name)}
	}
	for i := 1; i < len(h.les); i++ {
		if !(h.les[i] > h.les[i-1]) {
			errs = append(errs, fmt.Errorf("histogram %q: le=%g does not increase over le=%g", name, h.les[i], h.les[i-1]))
		}
		if h.counts[i] < h.counts[i-1] {
			errs = append(errs, fmt.Errorf("histogram %q: bucket le=%g count %g below previous %g (not cumulative)",
				name, h.les[i], h.counts[i], h.counts[i-1]))
		}
	}
	last := h.les[len(h.les)-1]
	if !math.IsInf(last, 1) {
		errs = append(errs, fmt.Errorf("histogram %q: missing closing le=\"+Inf\" bucket", name))
	} else if h.hasCount && h.counts[len(h.counts)-1] != h.count {
		errs = append(errs, fmt.Errorf("histogram %q: +Inf bucket %g != _count %g", name, h.counts[len(h.counts)-1], h.count))
	}
	if !h.hasCount {
		errs = append(errs, fmt.Errorf("histogram %q: missing _count sample", name))
	}
	return errs
}

// histFamily resolves a histogram component sample to its declared family:
// "x_bucket" -> ("x", "_bucket") when TYPE x histogram was seen.
func histFamily(name string, typeOf map[string]string) (base, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) {
			b := strings.TrimSuffix(name, s)
			if typeOf[b] == "histogram" {
				return b, s
			}
		}
	}
	return "", ""
}

// parseComment splits "# KIND name rest"; ok is false for free-form
// comments.
func parseComment(text string) (kind, name, rest string, ok bool) {
	fields := strings.SplitN(strings.TrimSpace(text[1:]), " ", 3)
	if len(fields) < 2 {
		return "", "", "", false
	}
	kind = fields[0]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", false
	}
	name = fields[1]
	if len(fields) == 3 {
		rest = strings.TrimSpace(fields[2])
	}
	return kind, name, rest, true
}

// parseSample splits a sample line into name, raw label body (without
// braces, "" when absent) and value. Timestamps (a trailing integer
// field) are accepted and ignored.
func parseSample(text string) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", text)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("sample %q has no value", text)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("sample %q malformed", text)
	}
	value, err = parseFloat(fields[0])
	if err != nil {
		return "", "", 0, fmt.Errorf("sample %q: bad value: %v", text, err)
	}
	return name, labels, value, nil
}

// parseLE extracts the le label from a bucket's label body.
func parseLE(labels string) (float64, error) {
	for _, part := range strings.Split(labels, ",") {
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "le=") {
			continue
		}
		raw := strings.TrimPrefix(part, "le=")
		raw = strings.Trim(raw, `"`)
		return parseFloat(raw)
	}
	return 0, fmt.Errorf("bucket has no le label (labels %q)", labels)
}

// parseFloat parses an exposition value, accepting the +Inf/-Inf/NaN
// literals Go's strconv already understands.
func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
