package vfs

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"datagridflow/internal/sim"
)

// refObject is the 80-byte record the resource kept by value before
// synthetic objects shrank to their size and time: bytes, cached digest
// and corruption mark inline, the time as a time.Time.
type refObject struct {
	size      int64
	storedAt  time.Time
	data      []byte
	checksum  Digest
	corrupted bool
}

// refResource is the store of refObjects the resource's records are
// held to.
type refResource struct {
	name    string
	offline bool
	used    int64
	objects map[string]refObject
}

func (r *refResource) Put(id string, size int64, data []byte, now time.Time) error {
	if size < 0 {
		return fmt.Errorf("vfs: negative size %d for %q", size, id)
	}
	if data != nil && int64(len(data)) != size {
		return fmt.Errorf("vfs: size %d does not match data length %d for %q", size, len(data), id)
	}
	if r.offline {
		return fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	if _, ok := r.objects[id]; ok {
		return fmt.Errorf("%w: %s on %s", ErrExists, id, r.name)
	}
	var stored []byte
	if data != nil {
		stored = append([]byte{}, data...)
	}
	r.objects[id] = refObject{size: size, storedAt: now, data: stored}
	r.used += size
	return nil
}

func (r *refResource) Get(id string) ([]byte, error) {
	if r.offline {
		return nil, fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	o, ok := r.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	if o.data == nil {
		return nil, nil
	}
	return append([]byte{}, o.data...), nil
}

func (r *refResource) Delete(id string) error {
	if r.offline {
		return fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	o, ok := r.objects[id]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	delete(r.objects, id)
	r.used -= o.size
	return nil
}

func (r *refResource) Stat(id string) (int64, bool) {
	o, ok := r.objects[id]
	return o.size, ok
}

func (r *refResource) Checksum(id string) (Digest, error) {
	if r.offline {
		return Digest{}, fmt.Errorf("%w: %s", ErrOffline, r.name)
	}
	o, ok := r.objects[id]
	if !ok {
		return Digest{}, fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	if o.checksum.IsZero() {
		o.checksum = computeChecksum(id, &object{size: o.size, data: o.data, corrupted: o.corrupted})
		r.objects[id] = o
	}
	return o.checksum, nil
}

func (r *refResource) Corrupt(id string) error {
	o, ok := r.objects[id]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotFound, id, r.name)
	}
	if len(o.data) > 0 {
		o.data[0] ^= 0xFF
	} else {
		o.corrupted = true
	}
	o.checksum = Digest{}
	r.objects[id] = o
	return nil
}

func (r *refResource) List() []string {
	out := make([]string, 0, len(r.objects))
	for id := range r.objects {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// FuzzResourceMatchesReference drives a resource and the reference
// through one sequence of Put (real, empty, synthetic and mismatched),
// Get, Delete, Stat, Checksum, Corrupt and offline switches taken from
// the fuzzer's bytes, and holds every answer to the reference's: errors,
// bytes, infos, digests, the listing, the count and the bytes used.
// Times come back as the same instants in UTC. Run as a plain test it
// replays the seed corpus.
func FuzzResourceMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0, 0, 0, 4, 0, 0, 5, 0, 0, 4, 0, 0, 1, 0, 0, 3, 0, 0},
		{0, 1, 1, 0, 2, 2, 0, 3, 3, 5, 1, 0, 5, 2, 0, 5, 3, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0},
		{0, 1, 1, 4, 1, 0, 5, 1, 0, 4, 1, 0, 5, 1, 0, 4, 1, 0, 1, 1, 0, 2, 1, 0, 0, 1, 2},
		{6, 0, 0, 0, 0, 1, 1, 0, 0, 4, 0, 0, 2, 0, 0, 6, 0, 1, 2, 0, 0, 0, 0, 4},
	} {
		f.Add(seed)
	}
	ids := []string{"/grid/a.dat", "/grid/b.dat", "", "/grid/a.dat~1"}
	zones := []*time.Location{time.UTC, time.FixedZone("PDT", -7*3600)}
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := New("d", "x", Disk, 0)
		ref := &refResource{name: "d", objects: map[string]refObject{}}
		for step := 0; len(prog) >= 3; step++ {
			op, id, arg := prog[0]%7, ids[int(prog[1])%len(ids)], int(prog[2])
			prog = prog[3:]
			same := func(what string, got, want any, gotErr, wantErr error) {
				t.Helper()
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s(%q) = %v, %v; the reference: %v, %v", step, what, id, got, gotErr, want, wantErr)
				}
			}
			switch op {
			case 0:
				now := sim.Epoch.Add(time.Duration(step) * time.Millisecond).In(zones[arg%2])
				if arg%7 == 6 {
					now = time.Time{}
				}
				size, data := int64(arg%5), []byte(nil)
				switch arg % 4 {
				case 1:
					data = bytes.Repeat([]byte{byte(arg)}, int(size))
				case 2:
					data = []byte{}
				case 3:
					size = -1
				}
				_, err := r.Put(id, size, data)
				same("Put", nil, nil, err, ref.Put(id, size, data, now))
			case 1:
				got, _, err := r.Get(id)
				want, refErr := ref.Get(id)
				same("Get", got, want, err, refErr)
			case 2:
				_, err := r.Delete(id)
				same("Delete", nil, nil, err, ref.Delete(id))
			case 3:
				got, ok := r.Stat(id)
				want, refOK := ref.Stat(id)
				same("Stat", []any{got, ok}, []any{want, refOK}, nil, nil)
			case 4:
				got, _, err := r.Checksum(id)
				want, refErr := ref.Checksum(id)
				same("Checksum", got, want, err, refErr)
			case 5:
				same("Corrupt", nil, nil, r.Corrupt(id), ref.Corrupt(id))
			case 6:
				r.SetOffline(arg%2 == 1)
				ref.offline = arg%2 == 1
			}
			want := ref.List()
			if r.Count() != len(want) || r.Used() != ref.used {
				t.Fatalf("step %d: Count %d, Used %d; the reference: %q, %d", step, r.Count(), r.Used(), want, ref.used)
			}
			for _, held := range want {
				if _, ok := r.Stat(held); !ok {
					t.Fatalf("step %d: Stat(%s) found nothing; the reference holds %q", step, held, want)
				}
			}
		}
	})
}
