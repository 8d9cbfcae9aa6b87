package vdata

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenFull sets every field of an entry; goldenBare only the key and
// the tenant. Do not edit: vdata logs already on disk hold their bytes.
var (
	goldenFull = Entry{
		Key: "6c1b0bd6a1f04dbf9c8e1e1f0e4b7a21", Tenant: "alice", Op: "exec",
		Inputs:  []string{"/grid/raw/a.dat", ""},
		Params:  map[string]string{"command": "fft /grid/raw/a.dat", "cpuSeconds": "40", "empty": ""},
		Outputs: []string{"/grid/derived/spectrum.dat", "/grid/derived/phase.dat"},
		Result:  "done:fft", Peer: "matrixA", Unix: 1786190402,
	}
	goldenBare = Entry{Key: "0f9e", Tenant: "bob"}
)

// TestGoldenLog pins testdata/log_v1.bin — the log Publish and
// Invalidate write for a put with every field set, a put with only key
// and tenant, and a del of the second — and replays it. Regenerate with
// `go test ./internal/vdata -run Golden -update` after an intentional
// change of layout.
func TestGoldenLog(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{goldenFull, goldenBare} {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Invalidate("bob", goldenBare.Key); n != 1 || err != nil {
		t.Fatalf("invalidate: %d, %v", n, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "log_v1.bin")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the log diverges from testdata/log_v1.bin: logs on disk would no longer replay as written\n got: %x\nwant: %x", got, want)
	}

	// The pinned file, as an earlier build left it, replays.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogName), want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if e, ok := c.Lookup("alice", goldenFull.Key); !ok || !reflect.DeepEqual(e, goldenFull) {
		t.Errorf("replayed %+v, %v; want %+v", e, ok, goldenFull)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("replayed %+v, want 1 entry", st)
	}
}

// FuzzReplay: Open over arbitrary bytes never panics. It refuses the log
// with an ErrInvalid, or replays a prefix of it — what is left on disk is
// a prefix of what was there — after which a publish is seen by the next
// reopen.
func FuzzReplay(f *testing.F) {
	whole := putFrame(goldenFull)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(append(putFrame(goldenBare), whole[:5]...))
	f.Add([]byte{})
	f.Add([]byte(`{"op":"del","key":"k"}` + "\n"))
	f.Add([]byte{codec.Magic, codec.Version, codec.MsgRecord, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, LogName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, obs.NewRegistry())
		if err != nil {
			if !errors.Is(err, dgferr.ErrInvalid) {
				t.Fatalf("Open refused the log with %v, want an ErrInvalid", err)
			}
			return
		}
		if left, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(data, left) {
			t.Fatalf("Open left %x on disk, not a prefix of %x (%v)", left, data, err)
		}
		e := Entry{Key: "fuzz-appended", Tenant: "t", Outputs: []string{"/out"}}
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c, err = Open(dir, obs.NewRegistry())
		if err != nil {
			t.Fatalf("reopen after a publish: %v", err)
		}
		defer c.Close()
		if got, ok := c.Lookup("t", e.Key); !ok || !reflect.DeepEqual(got, e) {
			t.Fatalf("the appended publish replays as %+v, %v", got, ok)
		}
	})
}

// FuzzEntryRoundTrip: an entry survives AppendEntry/DecodeEntry, in a log
// frame and nested in a message, and always encodes to the same bytes.
// An empty Inputs, Params or Outputs decodes as nil, as it was absent.
func FuzzEntryRoundTrip(f *testing.F) {
	f.Add("k", "alice", "exec", "/in/a", "v", int64(1786190402), byte(0))
	f.Add("", "", "", "", "", int64(-1), byte(26))
	f.Add("6c1b", "bob", "fft", "", "x", int64(0), byte(13))
	f.Fuzz(func(t *testing.T, key, tenant, op, a, b string, unix int64, shape byte) {
		list := func(s byte) []string {
			switch s % 3 {
			case 1:
				return []string{}
			case 2:
				return []string{a, b, a}
			}
			return nil
		}
		e := Entry{Key: key, Tenant: tenant, Op: op, Inputs: list(shape), Outputs: list(shape / 3),
			Result: b, Peer: a, Unix: unix}
		switch shape / 9 % 3 {
		case 1:
			e.Params = map[string]string{}
		case 2:
			e.Params = map[string]string{a: b, b: a, "": key}
		}
		want := e
		if len(want.Inputs) == 0 {
			want.Inputs = nil
		}
		if len(want.Outputs) == 0 {
			want.Outputs = nil
		}
		if len(want.Params) == 0 {
			want.Params = nil
		}

		frame := putFrame(e)
		if again := putFrame(e); !bytes.Equal(frame, again) {
			t.Fatalf("one entry, two encodings:\n%x\n%x", frame, again)
		}
		fr, err := codec.NextFrame(frame, 0)
		if err != nil || fr.End != len(frame) {
			t.Fatalf("the put frame does not parse: %+v, %v", fr, err)
		}
		d := codec.NewFieldsDecoder(frame, fr.Body, fr.End)
		got, del := decodeRecord(&d)
		if err := d.Err(); err != nil || del || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame round trip: %+v (del %v), %v; want %+v", got, del, err, want)
		}

		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		enc.Begin(codec.MsgControl)
		enc.Sym(1, tenant)
		enc.Msg(2, func(enc *codec.Encoder) { AppendEntry(enc, &e) })
		enc.Sym(3, tenant)
		nd, err := codec.NewDecoder(enc.Bytes(), codec.MsgControl)
		if err != nil {
			t.Fatal(err)
		}
		var nested Entry
		var after string
		for nd.Next() {
			switch nd.Field() {
			case 2:
				end := nd.MsgEnter()
				nested = DecodeEntry(&nd)
				nd.MsgExit(end)
			case 3:
				after = nd.Sym()
			default:
				nd.Skip()
			}
		}
		if err := nd.Err(); err != nil || !reflect.DeepEqual(nested, want) || after != tenant {
			t.Fatalf("nested round trip: %+v, %q, %v; want %+v, %q", nested, after, err, want, tenant)
		}
	})
}
