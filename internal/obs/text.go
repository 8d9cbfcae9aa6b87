package obs

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// Exposition renders the registry's current state as Prometheus text
// exposition format 0.0.4, the one form in which metrics leave a
// process: GET /metrics serves these bytes, the wire's metrics verb
// carries them, and dgfctl and dgfbench print them.
//
// A first comment line, "# at <RFC 3339 instant>", carries the
// snapshot's instant on the registry's clock (virtual under
// simulation). Each family gets one "# TYPE" line before its series. A
// histogram series is written as cumulative _bucket lines ending at
// le="+Inf", then _sum and _count, then its min and max as the untyped
// <name>_min and <name>_max. Equal registry states render equal bytes.
func (r *Registry) Exposition() []byte {
	s := r.Snapshot()
	b := s.At.UTC().AppendFormat([]byte("# at "), time.RFC3339Nano)
	b = append(b, '\n')
	b = appendPoints(b, "counter", s.Counters)
	b = appendPoints(b, "gauge", s.Gauges)
	for i := range s.Histograms {
		h := &s.Histograms[i]
		if i == 0 || s.Histograms[i-1].Name != h.Name {
			b = appendType(b, h.Name, "histogram")
		}
		var cum int64
		for j, n := range h.Counts {
			le := "+Inf"
			if j < len(h.Bounds) {
				le = strconv.FormatFloat(h.Bounds[j], 'g', -1, 64)
			}
			cum += n
			b = strconv.AppendInt(appendSeries(b, h.Name, "_bucket", h.Labels, le), cum, 10)
			b = append(b, '\n')
		}
		b = appendFloatLine(b, h, "_sum", h.Sum)
		b = strconv.AppendInt(appendSeries(b, h.Name, "_count", h.Labels, ""), h.Count, 10)
		b = append(b, '\n')
		b = appendFloatLine(b, h, "_min", h.Min)
		b = appendFloatLine(b, h, "_max", h.Max)
	}
	return b
}

func appendPoints(b []byte, typ string, ps []Point) []byte {
	for i := range ps {
		p := &ps[i]
		if i == 0 || ps[i-1].Name != p.Name {
			b = appendType(b, p.Name, typ)
		}
		b = strconv.AppendInt(appendSeries(b, p.Name, "", p.Labels, ""), p.Value, 10)
		b = append(b, '\n')
	}
	return b
}

func appendType(b []byte, name, typ string) []byte {
	b = append(append(b, "# TYPE "...), name...)
	return append(append(append(b, ' '), typ...), '\n')
}

func appendFloatLine(b []byte, h *HistPoint, suffix string, v float64) []byte {
	b = strconv.AppendFloat(appendSeries(b, h.Name, suffix, h.Labels, ""), v, 'g', -1, 64)
	return append(b, '\n')
}

// appendSeries writes a sample's name and its labels, in key order and
// then le when it is set, up to the space before the value. A label
// value's backslash, double quote and newline are escaped.
func appendSeries(b []byte, name, suffix string, labels map[string]string, le string) []byte {
	b = append(append(b, name...), suffix...)
	if len(labels) == 0 && le == "" {
		return append(b, ' ')
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sep := byte('{')
	label := func(k, v string) {
		b = append(append(append(b, sep), k...), `="`...)
		for i := 0; i < len(v); i++ {
			switch c := v[i]; c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, `\n`...)
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
		sep = ','
	}
	for _, k := range keys {
		label(k, labels[k])
	}
	if le != "" {
		label("le", le)
	}
	return append(b, "} "...)
}

// appendEvent writes ev as one logfmt line: seq, time (RFC 3339, UTC),
// type, scope, name and id, then the attributes in key order. A value
// that is empty or holds a space, '=', '"' or a byte outside printable
// ASCII is written as a Go-quoted string.
func appendEvent(b []byte, ev *Event) []byte {
	b = strconv.AppendUint(append(b, "seq="...), ev.Seq, 10)
	b = ev.Time.UTC().AppendFormat(append(b, " time="...), time.RFC3339Nano)
	b = appendPair(b, "type", ev.Type)
	b = appendPair(b, "scope", ev.Scope)
	b = appendPair(b, "name", ev.Name)
	b = appendPair(b, "id", ev.ID)
	a := ev.attrs
	sort.SliceStable(a[:], func(i, j int) bool { return a[i].Key < a[j].Key })
	for _, at := range a {
		if at.Key != "" {
			b = appendPair(b, at.Key, at.Value)
		}
	}
	return append(b, '\n')
}

func appendPair(b []byte, k, v string) []byte {
	b = append(append(append(b, ' '), k...), '=')
	if v != "" && strings.IndexFunc(v, func(r rune) bool { return r <= ' ' || r == '=' || r == '"' || r >= 0x7f }) < 0 {
		return append(b, v...)
	}
	return strconv.AppendQuote(b, v)
}
