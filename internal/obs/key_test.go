package obs

import "testing"

// TestLabelValuesCannotAliasSeries: label values come from user documents
// (op, tenant). Unescaped, a value carrying "|c=d" named the same series
// as a real second label pair.
func TestLabelValuesCannotAliasSeries(t *testing.T) {
	r := NewRegistry()
	for _, pair := range [][2][]string{
		{{"a", "b|c=d"}, {"a", "b", "c", "d"}},
		{{"a", `b\`, "c", "d"}, {"a", `b\|c=d`}},
	} {
		if r.Counter("m_total", pair[0]...) == r.Counter("m_total", pair[1]...) {
			t.Errorf("Counter(%q) and Counter(%q) are one series", pair[0], pair[1])
		}
		if r.Gauge("m", pair[0]...) == r.Gauge("m", pair[1]...) {
			t.Errorf("Gauge(%q) and Gauge(%q) are one series", pair[0], pair[1])
		}
		if r.Histogram("m_seconds", pair[0]...) == r.Histogram("m_seconds", pair[1]...) {
			t.Errorf("Histogram(%q) and Histogram(%q) are one series", pair[0], pair[1])
		}
	}
	if got := len(r.Snapshot().Counters); got != 4 {
		t.Errorf("snapshot holds %d counter series, want 4", got)
	}
}

// TestCanonicalKey pins the key grammar the snapshot order rests on: a
// series whose values need no escaping keeps the string it always had.
func TestCanonicalKey(t *testing.T) {
	for _, tc := range []struct {
		kv   []string
		want string
	}{
		{nil, "m"},
		{[]string{"op", "ingest"}, "m|op=ingest"},
		{[]string{"b", "2", "a", "1", "c", "3"}, "m|a=1|b=2|c=3"},
		{[]string{"a", "1", "b"}, "m|a=1|b="},                 // odd trailing key: empty value
		{[]string{"a", "1", "b", "2", "a", "3"}, "m|a=3|b=2"}, // repeated key: last value
		{[]string{"a", `x|y=z\`}, `m|a=x\|y\=z\\`},
		{[]string{"k9", "", "k8", "", "k7", "", "k6", "", "k5", "", "k4", "", "k3", "", "k2", "", "k1", "", "k0", ""},
			"m|k0=|k1=|k2=|k3=|k4=|k5=|k6=|k7=|k8=|k9="}, // more pairs than the stack index holds
	} {
		if got := string(appendKey(nil, "m", tc.kv)); got != tc.want {
			t.Errorf("appendKey(%q) = %q, want %q", tc.kv, got, tc.want)
		}
		// The key read in place agrees with the labels map a snapshot
		// reports: re-keying from the map gives the same string.
		var fromMap []string
		for k, v := range labelMap(tc.kv) {
			fromMap = append(fromMap, k, v)
		}
		if got := string(appendKey(nil, "m", fromMap)); got != tc.want {
			t.Errorf("appendKey(labelMap(%q)) = %q, want %q", tc.kv, got, tc.want)
		}
	}
}

// TestLookupHitAllocs is the budget the tentpole buys: resolving an
// existing series costs no allocation, however many label pairs it has
// and in whatever order they are given (the parent commit paid a map, a key
// slice, a sort and a string: 5 to 7 allocations a call), and every order
// names the identical series.
func TestLookupHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	r := NewRegistry()
	orders := [][][]string{
		{nil},
		{{"op", "ingest"}},
		{{"op", "ingest", "outcome", "ok"}, {"outcome", "ok", "op", "ingest"}},
		{
			{"kind", "submit", "op", "ingest", "tenant", "alice"},
			{"tenant", "alice", "op", "ingest", "kind", "submit"},
			{"op", "ingest", "tenant", "alice", "kind", "submit"},
		},
	}
	for pairs, kvs := range orders {
		c, g, h := r.Counter("c_total", kvs[0]...), r.Gauge("g", kvs[0]...), r.Histogram("h_seconds", kvs[0]...)
		for _, kv := range kvs {
			var sameC, sameG, sameH bool
			allocs := testing.AllocsPerRun(100, func() {
				sameC = r.Counter("c_total", kv...) == c
				sameG = r.Gauge("g", kv...) == g
				sameH = r.Histogram("h_seconds", kv...) == h
			})
			if !sameC || !sameG || !sameH {
				t.Errorf("%d pairs as %q: not the series first registered (%v %v %v)", pairs, kv, sameC, sameG, sameH)
			}
			if allocs != 0 {
				t.Errorf("%d pairs as %q: %.0f allocations for three lookup hits, want 0", pairs, kv, allocs)
			}
		}
	}
	// The shape every call site has: a literal argument list.
	if allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c_total", "outcome", "ok", "op", "ingest").Inc()
	}); allocs != 0 {
		t.Errorf("literal two-pair counter hit: %.0f allocations, want 0", allocs)
	}
}
