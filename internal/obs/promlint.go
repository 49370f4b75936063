package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// promlint.go is a strict validator for the Prometheus text exposition
// format as this store emits it. It is deliberately tighter than what the
// Prometheus scraper accepts: every family must carry a # HELP line
// immediately before its # TYPE line, both must precede the family's
// samples, families must not interleave, histogram buckets must be
// cumulative and monotone with a terminal +Inf equal to _count, and names
// must match the canonical grammar. The exposition tests scrape /metrics
// in both serve modes through it; no production code calls it.

// promNameRE is the exposition name grammar this store emits: the
// registry's lowercase_snake names under a lowercase prefix.
var promNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// promSampleRE splits a sample line into name, optional label block, and
// value.
var promSampleRE = regexp.MustCompile(`^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (\S+)$`)

type promFamily struct {
	name     string
	typ      string
	helpSeen bool
	typeSeen bool
	samples  int
	// histogram state
	lastLE      float64
	lastCum     float64
	infSeen     bool
	infVal      float64
	sumSeen     bool
	countSeen   bool
	countVal    float64
	bucketsSeen int
}

// LintPrometheus reads one exposition and returns every violation found
// (nil means the exposition is valid).
func LintPrometheus(r io.Reader) []error {
	var errs []error
	addErr := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	seen := map[string]bool{} // families already closed
	var cur *promFamily
	closeFamily := func(line int) {
		if cur == nil {
			return
		}
		if cur.samples == 0 {
			addErr(line, "family %s declared but has no samples", cur.name)
		}
		if cur.typ == "histogram" {
			if !cur.infSeen {
				addErr(line, "histogram %s has no +Inf bucket", cur.name)
			}
			if !cur.sumSeen {
				addErr(line, "histogram %s has no _sum", cur.name)
			}
			if !cur.countSeen {
				addErr(line, "histogram %s has no _count", cur.name)
			} else if cur.infSeen && cur.infVal != cur.countVal {
				addErr(line, "histogram %s: +Inf bucket %v != _count %v", cur.name, cur.infVal, cur.countVal)
			}
		}
		seen[cur.name] = true
		cur = nil
	}
	// baseOf maps a sample name to its family base for histogram series.
	baseOf := func(name string) (base, suffix string) {
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				return strings.TrimSuffix(name, s), s
			}
		}
		return name, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				addErr(lineNo, "malformed comment line %q", line)
				continue
			}
			name := fields[2]
			if !promNameRE.MatchString(name) {
				addErr(lineNo, "invalid metric name %q", name)
			}
			switch fields[1] {
			case "HELP":
				if cur != nil {
					closeFamily(lineNo)
				}
				if seen[name] {
					addErr(lineNo, "duplicate family %s", name)
				}
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					addErr(lineNo, "family %s has empty help text", name)
				}
				cur = &promFamily{name: name, helpSeen: true, lastLE: math.Inf(-1)}
			case "TYPE":
				if len(fields) != 4 {
					addErr(lineNo, "malformed TYPE line %q", line)
					continue
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					addErr(lineNo, "family %s has invalid type %q", name, typ)
				}
				if cur == nil || cur.name != name {
					addErr(lineNo, "TYPE for %s without preceding HELP", name)
					closeFamily(lineNo)
					cur = &promFamily{name: name, lastLE: math.Inf(-1)}
				}
				if cur.typeSeen {
					addErr(lineNo, "duplicate TYPE for %s", name)
				}
				cur.typ = typ
				cur.typeSeen = true
			}
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			addErr(lineNo, "malformed sample line %q", line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			addErr(lineNo, "sample %s has non-numeric value %q", name, valStr)
			continue
		}
		base, suffix := baseOf(name)
		if cur == nil {
			addErr(lineNo, "sample %s before any family declaration", name)
			continue
		}
		if name != cur.name && base != cur.name {
			addErr(lineNo, "sample %s outside its family block (current family %s)", name, cur.name)
			continue
		}
		if !cur.typeSeen {
			addErr(lineNo, "sample %s before its TYPE line", name)
		}
		cur.samples++
		if cur.typ == "histogram" && name != cur.name {
			switch suffix {
			case "_bucket":
				le, ok := parseLE(labels)
				if !ok {
					addErr(lineNo, "histogram bucket %s missing le label", name)
					continue
				}
				if le <= cur.lastLE {
					addErr(lineNo, "histogram %s: le %v not increasing (prev %v)", cur.name, le, cur.lastLE)
				}
				if val < cur.lastCum {
					addErr(lineNo, "histogram %s: cumulative bucket count decreased (%v after %v)", cur.name, val, cur.lastCum)
				}
				cur.lastLE, cur.lastCum = le, val
				cur.bucketsSeen++
				if math.IsInf(le, 1) {
					cur.infSeen, cur.infVal = true, val
				}
			case "_sum":
				cur.sumSeen = true
			case "_count":
				cur.countSeen, cur.countVal = true, val
			}
		} else if cur.typ == "counter" || cur.typ == "gauge" {
			if name != cur.name {
				addErr(lineNo, "sample %s does not match %s family %s", name, cur.typ, cur.name)
			}
			if labels != "" {
				addErr(lineNo, "unexpected labels on %s sample %s", cur.typ, name)
			}
			if cur.typ == "counter" && val < 0 {
				addErr(lineNo, "counter %s has negative value %v", name, val)
			}
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Errorf("read: %w", err))
	}
	closeFamily(lineNo)
	return errs
}

// parseLE extracts the le label's value from a {..} label block,
// accepting +Inf.
func parseLE(labels string) (float64, bool) {
	const key = `le="`
	i := strings.Index(labels, key)
	if i < 0 {
		return 0, false
	}
	rest := labels[i+len(key):]
	j := strings.Index(rest, `"`)
	if j < 0 {
		return 0, false
	}
	s := rest[:j]
	if s == "+Inf" {
		return math.Inf(1), true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
