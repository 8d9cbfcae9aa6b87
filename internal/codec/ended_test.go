package codec

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"datagridflow/internal/dgl"
)

// lines writes a status walk out as text, one line a node, its times
// rendered as every sink renders them.
type lines struct{ b []byte }

func (s *lines) Open(n dgl.StatusNode) {
	s.b = fmt.Appendf(s.b, "(%q %q %q %q ", n.ID, n.Name, n.Kind, n.State)
	s.b = append(n.Finished.Append(append(n.Started.Append(s.b), ' ')), ' ')
	s.b = fmt.Appendf(s.b, "%q %q\n", n.Delegated, n.Error)
}

func (s *lines) Close() { s.b = append(s.b, ")\n"...) }

// statusTree is a status tree as a live one walks: nodes with their
// times as time.Time.
type statusTree struct {
	n    dgl.StatusNode
	kids []*statusTree
}

func (t *statusTree) walk(sink dgl.StatusSink) {
	sink.Open(t.n)
	for _, k := range t.kids {
		k.walk(sink)
	}
	sink.Close()
}

// find is a live node's find: the node with id, looked for only under
// nodes whose ids lead to it.
func (t *statusTree) find(id string) *statusTree {
	if t.n.ID == id {
		return t
	}
	if !leadsTo(t.n.ID, id) {
		return nil
	}
	for _, k := range t.kids {
		if f := k.find(id); f != nil {
			return f
		}
	}
	return nil
}

// all lists the subtree's nodes in walk order.
func (t *statusTree) all(into []*statusTree) []*statusTree {
	into = append(into, t)
	for _, k := range t.kids {
		into = k.all(into)
	}
	return into
}

// FuzzEndedRoundTrip writes status trees of any shape and content —
// names that are not their id's last segment, kinds and states without
// a code, zero times, times near the root's and centuries away, child
// ids that extend their parent's by a segment or by a loop's "[i]" and
// grafted ids of another peer's execution — into an ended record, and
// holds the record's walk to the tree's, from the root and from every
// node's id. Arbitrary bytes after a MsgEnded header must be read or
// refused, never panic.
func FuzzEndedRoundTrip(f *testing.F) {
	f.Add([]byte{0x3f, 0x01, 0x1c, 0x00, 0x22}, "flow/step<&>\"x\" é\x00", int64(1790000000123456789))
	f.Add([]byte{0x02, 0x42, 0x80, 0x90, 0x11}, "", int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "2026-10-03T09:00:00Z", int64(-1))
	// Iteration and grafted remote children, nested.
	f.Add([]byte{0x05, 0x02, 0x05, 0x09, 0x0d, 0x02, 0x11, 0x06, 0x01}, "loop", int64(1790000000000000000))
	f.Fuzz(func(t *testing.T, shape []byte, text string, nanos int64) {
		if len(shape) > 48 {
			shape = shape[:48]
		}
		word := func(i int) string {
			if len(text) == 0 {
				return ""
			}
			from := i * 3 % len(text)
			return text[from:min(from+1+i%7, len(text))]
		}
		at := func(b byte, i int) time.Time {
			switch b & 3 {
			case 0:
				return time.Time{}
			case 1:
				return time.Unix(0, nanos+int64(i)*1e6)
			case 2:
				return time.Unix(-62135596800+int64(i), int64(i)) // year 1, far from any base
			default:
				return time.Unix(0, nanos).Add(-time.Duration(i) * time.Hour)
			}
		}
		var build func(id string, depth int) *statusTree
		build = func(id string, depth int) *statusTree {
			b := byte(0)
			if len(shape) > 0 {
				b, shape = shape[0], shape[1:]
			}
			i := len(shape)
			n := &statusTree{n: dgl.StatusNode{ID: id, Name: lastSegment(id),
				Kind: kinds[int(b)%len(kinds)], State: states[int(b>>1)%len(states)],
				Started: dgl.StatusTime{Time: at(b>>2, i)}, Finished: dgl.StatusTime{Time: at(b>>4, i)}}}
			if b&0x40 != 0 {
				n.n.Name, n.n.Kind, n.n.State = word(i), word(i+1), word(i+2)
			}
			if b&0x80 != 0 {
				n.n.Delegated, n.n.Error = word(i+3), word(i+4)
			}
			for c := 0; depth < 4 && c < int(b%3) && len(shape) > 0; c++ {
				kid := fmt.Sprintf("%s/%s%d", id, word(i+c), c)
				switch (int(b>>2) + c) % 4 {
				case 1: // a loop's pass
					kid = fmt.Sprintf("%s[%d]", id, c)
				case 2: // grafted from another peer
					kid = fmt.Sprintf("peerB:dgf-%06d/%s%d", i, word(i+c), c)
				}
				n.kids = append(n.kids, build(kid, depth+1))
			}
			return n
		}
		tree := build("dgf-000001/"+word(0), 0)
		vars := map[string]string{word(1): word(2), "": word(3)}

		var w EndedWriter
		e := GetEncoder()
		defer PutEncoder(e)
		w.Begin(e)
		tree.walk(&w)
		for k, v := range vars {
			w.Var(k, []byte(v))
		}
		rec := string(e.Bytes())

		var want, got lines
		tree.walk(&want)
		if ok, err := WalkEnded(rec, "", true, &got); !ok || err != nil {
			t.Fatalf("walk: %v, %v", ok, err)
		}
		if string(got.b) != string(want.b) {
			t.Fatalf("record walk\n%s\ntree walk\n%s", got.b, want.b)
		}
		var root, wantRoot lines
		wantRoot.Open(tree.n)
		wantRoot.Close()
		if ok, _ := WalkEnded(rec, tree.n.ID, false, &root); !ok || string(root.b) != string(wantRoot.b) {
			t.Fatalf("root alone\n%s\nwant\n%s", root.b, wantRoot.b)
		}
		for _, n := range tree.all(nil) {
			for _, detail := range []bool{false, true} {
				var got, want lines
				found := tree.find(n.n.ID)
				if found != nil {
					if detail {
						found.walk(&want)
					} else {
						want.Open(found.n)
						want.Close()
					}
				}
				ok, err := WalkEnded(rec, n.n.ID, detail, &got)
				if err != nil || ok != (found != nil) || string(got.b) != string(want.b) {
					t.Fatalf("%q detail=%v: found %v (%v), want %v\n%s\nwant\n%s", n.n.ID, detail, ok, err, found != nil, got.b, want.b)
				}
			}
		}
		if got, err := EndedVars(rec); err != nil || !maps.Equal(got, vars) {
			t.Fatalf("vars %v, %v; want %v", got, err, vars)
		}
		// Arbitrary bytes after the header: read or refused.
		junk := string([]byte{Magic, Version, MsgEnded}) + text
		_, _ = WalkEnded(junk, word(5), true, &lines{})
		_, _ = EndedRoot(junk)
		_, _ = EndedVars(junk)
		_, _ = EndedRequest(junk)
	})
}
