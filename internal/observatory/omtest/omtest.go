// Package omtest is a small OpenMetrics text-format parser for tests,
// strict enough to catch the bugs an exporter can actually have: bad
// metric or label names, broken label escaping, unparsable values, counter
// samples without the `_total` suffix, histogram families with non-monotone
// buckets or a missing +Inf bucket, and a missing terminal `# EOF`. The
// observatory's exposition tests and cmd/flextm's live scrape test run
// every exposition through it, and the quick-check tests pit the writer's
// escaping against its unescaping.
package omtest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Label is one parsed label.
type Label struct {
	Name, Value string
}

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label and whether it was present.
func (s Sample) Label(name string) (string, bool) {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// Family is one metric family: TYPE/HELP metadata plus its samples.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
	// typeSet/helpSet record that the metadata line was seen, so a second
	// one for the same family is rejected instead of silently overwriting.
	typeSet, helpSet bool
}

// Exposition is a parsed OpenMetrics text exposition.
type Exposition struct {
	Families []*Family
	byName   map[string]*Family
}

// Family returns the named family, nil when absent.
func (e *Exposition) Family(name string) *Family {
	return e.byName[name]
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true,
	"info": true, "stateset": true, "unknown": true, "gaugehistogram": true,
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// sampleSuffixes maps a family type to the sample-name suffixes it allows
// (empty string = the bare family name).
func sampleSuffixes(typ string) []string {
	switch typ {
	case "counter":
		return []string{"_total", "_created"}
	case "histogram":
		return []string{"_bucket", "_count", "_sum", "_created"}
	case "gaugehistogram":
		return []string{"_bucket", "_gcount", "_gsum"}
	case "summary":
		return []string{"", "_count", "_sum", "_created"}
	case "info":
		return []string{"_info"}
	default: // gauge, stateset, unknown
		return []string{""}
	}
}

// ParseExposition parses (and thereby validates) an OpenMetrics text
// exposition.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{byName: map[string]*Family{}}
	var cur *Family
	sawEOF := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			return nil, fmt.Errorf("line %d: blank line is not allowed", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			fam := exp.byName[name]
			if fam == nil {
				fam = &Family{Name: name, Type: "unknown"}
				exp.byName[name] = fam
				exp.Families = append(exp.Families, fam)
			}
			switch kind {
			case "TYPE":
				if !validTypes[rest] {
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, rest)
				}
				if len(fam.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				if fam.typeSet {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				fam.typeSet = true
				fam.Type = rest
			case "HELP":
				if fam.helpSet {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				fam.helpSet = true
				fam.Help = rest
			}
			cur = fam
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(exp, cur, s.Name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q belongs to no declared family", lineNo, s.Name)
		}
		ok := false
		for _, suf := range sampleSuffixes(fam.Type) {
			if s.Name == fam.Name+suf {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("line %d: sample name %q is not legal for %s family %q",
				lineNo, s.Name, fam.Type, fam.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("missing terminal # EOF")
	}
	for _, fam := range exp.Families {
		if fam.Type == "histogram" {
			if err := checkHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return exp, nil
}

// CheckExposition validates an exposition, discarding the parse.
func CheckExposition(r io.Reader) error {
	_, err := ParseExposition(r)
	return err
}

// familyOf resolves the family a sample belongs to: the current family if
// the name matches one of its legal sample names, else an exact-name
// lookup (for families declared earlier).
func familyOf(exp *Exposition, cur *Family, sample string) *Family {
	if cur != nil {
		for _, suf := range sampleSuffixes(cur.Type) {
			if sample == cur.Name+suf {
				return cur
			}
		}
	}
	if fam := exp.byName[sample]; fam != nil {
		return fam
	}
	// A suffixed sample of an earlier family.
	for _, suf := range []string{"_total", "_created", "_bucket", "_count", "_sum", "_info", "_gcount", "_gsum"} {
		if strings.HasSuffix(sample, suf) {
			if fam := exp.byName[strings.TrimSuffix(sample, suf)]; fam != nil {
				return fam
			}
		}
	}
	return nil
}

// parseComment splits "# TYPE name rest" / "# HELP name rest".
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "# ")
	if body == line {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	parts := strings.SplitN(body, " ", 3)
	if len(parts) < 2 {
		return "", "", "", fmt.Errorf("malformed metadata line %q", line)
	}
	kind = parts[0]
	if kind != "TYPE" && kind != "HELP" && kind != "UNIT" {
		return "", "", "", fmt.Errorf("unknown metadata keyword %q", kind)
	}
	name = parts[1]
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("bad metric name %q", name)
	}
	if len(parts) == 3 {
		rest = parts[2]
	}
	if kind == "HELP" {
		rest, err = unescape(rest, false)
		if err != nil {
			return "", "", "", err
		}
	}
	return kind, name, rest, nil
}

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("bad sample name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimPrefix(rest, " ")
	fields := strings.Split(rest, " ")
	if len(fields) < 1 || len(fields) > 2 || fields[0] == "" {
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels parses a {name="value",...} label set, returning the tail
// after the closing brace.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	seen := map[string]bool{}
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return labels, s[i+1:], nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := s[i:j]
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("bad label name %q", name)
		}
		if seen[name] {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		seen[name] = true
		j++ // past '='
		if j >= len(s) || s[j] != '"' {
			return nil, "", fmt.Errorf("label %q value is not quoted", name)
		}
		j++
		var b strings.Builder
		for {
			if j >= len(s) {
				return nil, "", fmt.Errorf("unterminated value for label %q", name)
			}
			c := s[j]
			if c == '"' {
				break
			}
			if c == '\\' {
				if j+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %q", name)
				}
				switch s[j+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("illegal escape \\%c in label %q", s[j+1], name)
				}
				j += 2
				continue
			}
			if c == '\n' {
				return nil, "", fmt.Errorf("raw newline in label %q", name)
			}
			b.WriteByte(c)
			j++
		}
		labels = append(labels, Label{Name: name, Value: b.String()})
		j++ // past closing quote
		if j < len(s) && s[j] == ',' {
			i = j + 1
			continue
		}
		i = j
	}
}

// unescape reverses HELP/label escaping. quoted selects label rules
// (\" is legal).
func unescape(s string, quoted bool) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("dangling escape in %q", s)
		}
		i++
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case '"':
			if !quoted {
				return "", fmt.Errorf("illegal escape \\\" in %q", s)
			}
			b.WriteByte('"')
		default:
			return "", fmt.Errorf("illegal escape \\%c in %q", s[i], s)
		}
	}
	return b.String(), nil
}

// checkHistogram validates bucket structure: every _bucket carries le, the
// counts are monotone in le order as written, and a +Inf bucket exists
// matching _count.
func checkHistogram(fam *Family) error {
	var last float64
	var haveLast, haveInf bool
	var infCount, count float64
	var haveCount bool
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Label("le")
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", fam.Name)
			}
			if le == "+Inf" {
				haveInf = true
				infCount = s.Value
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("histogram %s: bad le %q", fam.Name, le)
			}
			if haveLast && s.Value < last {
				return fmt.Errorf("histogram %s: non-monotone buckets", fam.Name)
			}
			last, haveLast = s.Value, true
		case fam.Name + "_count":
			count, haveCount = s.Value, true
		}
	}
	if !haveInf {
		return fmt.Errorf("histogram %s: missing +Inf bucket", fam.Name)
	}
	if haveCount && infCount != count {
		return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", fam.Name, infCount, count)
	}
	return nil
}
