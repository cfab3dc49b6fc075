package introspect

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the consumer side of the exposition contract: a strict
// parser for the Prometheus text format subset WriteMetrics emits, and
// the monotonicity checker the tests and cmd/promcheck run across two
// scrapes. Hand-rolled because the repo takes no dependencies.

// Family is one parsed metric family.
type Family struct {
	Name    string
	Type    string // counter, gauge, summary, untyped
	Help    string
	Samples []Sample
}

// Sample is one exposition line.
type Sample struct {
	// Name is the sample's full name — the family name, or for summary
	// counts the family name + "_count".
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the sample's identity (name plus sorted labels) for
// duplicate detection and cross-scrape matching.
func (s Sample) Key() string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		b.WriteByte('{')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
		b.WriteByte('}')
	}
	return b.String()
}

// ParseExposition parses a text exposition document, enforcing the
// conventions WriteMetrics promises:
//
//   - HELP and TYPE declared at most once per family, TYPE before any
//     of the family's samples;
//   - each family's lines form one group: no line of another family
//     falls between its HELP, TYPE and samples;
//   - samples grouped under a declared family (summary families also
//     own their _count samples);
//   - counter names end in _total, non-counters do not;
//   - no duplicate sample (same name and label set);
//   - values parse as floats; label syntax well-formed.
//
// Families are returned in declaration order.
func ParseExposition(text string) ([]Family, error) {
	var fams []Family
	idx := make(map[string]int) // family name -> fams index
	seen := make(map[string]bool)
	last := -1 // the family of the previous HELP, TYPE or sample line
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without a name", lineNo)
			}
			if i, ok := idx[name]; ok {
				if i != last {
					return nil, fmt.Errorf("line %d: HELP for %s outside its family's group", lineNo, name)
				}
				if fams[i].Help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				fams[i].Help = strings.TrimPrefix(rest, name+" ")
				continue
			}
			last = len(fams)
			idx[name] = last
			fams = append(fams, Family{Name: name, Help: strings.TrimPrefix(rest, name+" ")})
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
			}
			i, ok := idx[name]
			if !ok {
				last = len(fams)
				idx[name] = last
				fams = append(fams, Family{Name: name, Type: typ})
				continue
			}
			if i != last {
				return nil, fmt.Errorf("line %d: TYPE for %s outside its family's group", lineNo, name)
			}
			if fams[i].Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if len(fams[i].Samples) > 0 {
				return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			fams[i].Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		famName := s.Name
		i, ok := idx[famName]
		if !ok && strings.HasSuffix(famName, "_count") {
			// A summary's _count belongs to the base family.
			base := strings.TrimSuffix(famName, "_count")
			if j, ok2 := idx[base]; ok2 && fams[j].Type == "summary" {
				i, ok = j, true
			}
		}
		if !ok {
			return nil, fmt.Errorf("line %d: sample %s has no declared family", lineNo, famName)
		}
		if i != last {
			return nil, fmt.Errorf("line %d: sample %s outside its family's group", lineNo, famName)
		}
		fam := &fams[i]
		if fam.Type == "" {
			return nil, fmt.Errorf("line %d: sample %s before its TYPE", lineNo, famName)
		}
		key := s.Key()
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	for _, f := range fams {
		isTotal := strings.HasSuffix(f.Name, "_total")
		if f.Type == "counter" && !isTotal {
			return nil, fmt.Errorf("counter %s does not end in _total", f.Name)
		}
		if f.Type != "counter" && isTotal {
			return nil, fmt.Errorf("%s %s must not end in _total", f.Type, f.Name)
		}
		if len(f.Samples) == 0 {
			return nil, fmt.Errorf("family %s declared but has no samples", f.Name)
		}
		if f.Type == "summary" {
			for _, s := range f.Samples {
				if s.Name == f.Name {
					if _, ok := s.Labels["quantile"]; !ok {
						return nil, fmt.Errorf("summary %s sample without quantile label", f.Name)
					}
				}
			}
		}
	}
	return fams, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		s.Name = rest[:brace]
		rest = rest[brace+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			k := strings.TrimSpace(rest[:eq])
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return s, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var v strings.Builder
			i := 0
			for i < len(rest) {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					switch rest[i+1] {
					case '\\':
						v.WriteByte('\\')
					case '"':
						v.WriteByte('"')
					case 'n':
						v.WriteByte('\n')
					default:
						return s, fmt.Errorf("bad escape in %q", line)
					}
					i += 2
					continue
				}
				if c == '"' {
					break
				}
				v.WriteByte(c)
				i++
			}
			if i >= len(rest) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			if _, dup := s.Labels[k]; dup {
				return s, fmt.Errorf("duplicate label %s in %q", k, line)
			}
			s.Labels[k] = v.String()
			rest = rest[i+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return s, fmt.Errorf("malformed label list in %q", line)
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, fmt.Errorf("sample without value in %q", line)
		}
		s.Name = rest[:sp]
		rest = rest[sp:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp after the value is legal in the format; WriteMetrics
	// never emits one, so reject extra fields to keep the contract tight.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// CheckMonotonic verifies counter discipline across two scrapes of the
// same target: every counter sample present in both must not decrease,
// and counter families present in the first scrape must still be
// declared in the second (series may come and go with tenants; whole
// families may not silently vanish).
func CheckMonotonic(prev, cur []Family) error {
	prevVals := map[string]float64{}
	prevFams := map[string]bool{}
	for _, f := range prev {
		if f.Type != "counter" {
			continue
		}
		prevFams[f.Name] = true
		for _, s := range f.Samples {
			prevVals[s.Key()] = s.Value
		}
	}
	curFams := map[string]bool{}
	for _, f := range cur {
		if f.Type != "counter" {
			continue
		}
		curFams[f.Name] = true
		for _, s := range f.Samples {
			if pv, ok := prevVals[s.Key()]; ok && s.Value < pv {
				return fmt.Errorf("counter %s regressed: %v -> %v", s.Key(), pv, s.Value)
			}
		}
	}
	for name := range prevFams {
		if !curFams[name] {
			return fmt.Errorf("counter family %s vanished between scrapes", name)
		}
	}
	return nil
}
