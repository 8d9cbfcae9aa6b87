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

// FuzzEndedRoundTrip writes status trees of any shape and content —
// names that are not their id's last segment, kinds and states without
// a code, zero times, times near the root's and centuries away — into
// an ended record, and holds the record's walk to the tree's. Arbitrary
// bytes after a MsgEnded header must be read or refused, never panic.
func FuzzEndedRoundTrip(f *testing.F) {
	f.Add([]byte{0x3f, 0x01, 0x1c, 0x00, 0x22}, "flow/step<&>\"x\" é\x00", int64(1790000000123456789))
	f.Add([]byte{0x02, 0x42, 0x80, 0x90, 0x11}, "", int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "2026-10-03T09:00:00Z", int64(-1))
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
				n.kids = append(n.kids, build(fmt.Sprintf("%s/%s%d", id, word(i+c), c), depth+1))
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
