package vfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"datagridflow/internal/sim"
)

func TestPutGetDelete(t *testing.T) {
	r := New("disk1", "sdsc", Disk, 0)
	data := []byte("hello datagrid")
	d, err := r.Put("obj1", int64(len(data)), data, sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d < DefaultProfile(Disk).Latency {
		t.Errorf("write time %v below latency", d)
	}
	got, rd, err := r.Get("obj1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("Get = %q", got)
	}
	if rd <= 0 {
		t.Errorf("read time %v", rd)
	}
	// Returned slice must be a copy.
	got[0] = 'X'
	again, _, _ := r.Get("obj1")
	if string(again) != string(data) {
		t.Errorf("Get returned aliased storage")
	}
	if r.Used() != int64(len(data)) || r.Count() != 1 {
		t.Errorf("Used=%d Count=%d", r.Used(), r.Count())
	}
	if _, err := r.Delete("obj1"); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 0 || r.Count() != 0 {
		t.Errorf("after delete: Used=%d Count=%d", r.Used(), r.Count())
	}
	if _, _, err := r.Get("obj1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: %v", err)
	}
	if _, err := r.Delete("obj1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestPutErrors(t *testing.T) {
	r := New("d", "x", Disk, 100)
	if _, err := r.Put("a", -1, nil, sim.Epoch); err == nil {
		t.Errorf("negative size accepted")
	}
	if _, err := r.Put("a", 5, []byte("four"), sim.Epoch); err == nil {
		t.Errorf("size/data mismatch accepted")
	}
	if _, err := r.Put("a", 60, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("a", 10, nil, sim.Epoch); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate id: %v", err)
	}
	if _, err := r.Put("b", 50, nil, sim.Epoch); !errors.Is(err, ErrCapacity) {
		t.Errorf("over capacity: %v", err)
	}
	if _, err := r.Put("b", 40, nil, sim.Epoch); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
	if r.Free() != 0 {
		t.Errorf("Free = %d, want 0", r.Free())
	}
}

func TestSyntheticObjects(t *testing.T) {
	r := New("tape", "archive.org", Archive, 0)
	const size = int64(5 << 30) // 5 GiB — never materialized
	if _, err := r.Put("big", size, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	info, ok := r.Stat("big")
	if !ok || !info.Synthetic || info.Size != size {
		t.Fatalf("Stat = %+v, %v", info, ok)
	}
	data, d, err := r.Get("big")
	if err != nil || data != nil {
		t.Fatalf("synthetic Get = %v, %v", data, err)
	}
	// 5 GiB at 20 MiB/s ≈ 256 s plus 30 s mount.
	if d < 250*time.Second {
		t.Errorf("archive read time suspiciously low: %v", d)
	}
}

func TestChecksum(t *testing.T) {
	r := New("d", "x", Disk, 0)
	if _, err := r.Put("real", 3, []byte("abc"), sim.Epoch); err != nil {
		t.Fatal(err)
	}
	sum, d, err := r.Checksum("real")
	if err != nil {
		t.Fatal(err)
	}
	// md5("abc")
	if sum != "900150983cd24fb0d6963f7d28e17f72" {
		t.Errorf("md5 = %s", sum)
	}
	if d <= 0 {
		t.Errorf("checksum should cost read time")
	}
	// Deterministic and stable for synthetic objects too.
	if _, err := r.Put("syn", 1000, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	s1, _, _ := r.Checksum("syn")
	s2, _, _ := r.Checksum("syn")
	if s1 != s2 || len(s1) != 32 {
		t.Errorf("synthetic checksum unstable: %s vs %s", s1, s2)
	}
	// md5("syn" + the size as 8 big-endian bytes): replicas registered
	// before a change to how the digest is computed must still verify.
	if s1 != "e5397988c414251f9d5c690d7451ffed" {
		t.Errorf("synthetic checksum = %s", s1)
	}
	// Two synthetic objects with different ids differ.
	if _, err := r.Put("syn2", 1000, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	s3, _, _ := r.Checksum("syn2")
	if s3 == s1 {
		t.Errorf("distinct synthetic objects share checksum")
	}
	if _, _, err := r.Checksum("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Checksum(missing): %v", err)
	}
}

func TestOffline(t *testing.T) {
	r := New("d", "x", Disk, 0)
	if _, err := r.Put("a", 1, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	r.SetOffline(true)
	if !r.Offline() {
		t.Fatalf("Offline() = false")
	}
	if _, err := r.Put("b", 1, nil, sim.Epoch); !errors.Is(err, ErrOffline) {
		t.Errorf("Put offline: %v", err)
	}
	if _, _, err := r.Get("a"); !errors.Is(err, ErrOffline) {
		t.Errorf("Get offline: %v", err)
	}
	if _, err := r.Delete("a"); !errors.Is(err, ErrOffline) {
		t.Errorf("Delete offline: %v", err)
	}
	if _, _, err := r.Checksum("a"); !errors.Is(err, ErrOffline) {
		t.Errorf("Checksum offline: %v", err)
	}
	r.SetOffline(false)
	if _, _, err := r.Get("a"); err != nil {
		t.Errorf("Get after recovery: %v", err)
	}
}

func TestListAndStats(t *testing.T) {
	r := New("d", "x", ParallelFS, 0)
	for _, id := range []string{"c", "a", "b"} {
		if _, err := r.Put(id, 1, nil, sim.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	list := r.List()
	if strings.Join(list, ",") != "a,b,c" {
		t.Errorf("List = %v", list)
	}
	_, _, _ = r.Get("a")
	_, _, _ = r.Get("b")
	reads, writes := r.Stats()
	if reads != 2 || writes != 3 {
		t.Errorf("Stats = %d reads, %d writes", reads, writes)
	}
}

func TestProfilesOrdering(t *testing.T) {
	// Faster classes must have higher bandwidth and lower latency; cheaper
	// classes must cost less to retain. These orderings drive every ILM
	// decision, so pin them down.
	mem, pfs, disk, tape := DefaultProfile(Memory), DefaultProfile(ParallelFS), DefaultProfile(Disk), DefaultProfile(Archive)
	if !(mem.ReadBW > pfs.ReadBW && pfs.ReadBW > disk.ReadBW && disk.ReadBW > tape.ReadBW) {
		t.Errorf("read bandwidth ordering violated")
	}
	if !(mem.Latency < pfs.Latency && pfs.Latency < disk.Latency && disk.Latency < tape.Latency) {
		t.Errorf("latency ordering violated")
	}
	if !(tape.DollarsPerGBMonth < disk.DollarsPerGBMonth && disk.DollarsPerGBMonth < pfs.DollarsPerGBMonth) {
		t.Errorf("retention cost ordering violated")
	}
	if DefaultProfile(Class(99)).ReadBW <= 0 {
		t.Errorf("unknown class should still get a usable profile")
	}
	for _, c := range []Class{Memory, ParallelFS, Disk, Archive, Class(99)} {
		if c.String() == "" {
			t.Errorf("empty class name for %d", int(c))
		}
	}
}

func TestRetentionCost(t *testing.T) {
	disk := New("d", "x", Disk, 0)
	tape := New("t", "x", Archive, 0)
	const month = 30 * 24 * time.Hour
	if _, err := disk.Put("a", 10<<30, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := tape.Put("a", 10<<30, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	cd, ct := disk.RetentionCost(month), tape.RetentionCost(month)
	if cd <= ct {
		t.Errorf("disk retention (%f) should exceed tape (%f)", cd, ct)
	}
	// 10 GB on disk at $1/GB-month ≈ $10.
	if cd < 9.9 || cd > 10.1 {
		t.Errorf("disk cost = %f, want ≈10", cd)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New("d", "x", Disk, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				id := fmt.Sprintf("w%d-%d", i, j)
				if _, err := r.Put(id, 10, nil, sim.Epoch); err != nil {
					errs <- err
					return
				}
				if _, ok := r.Stat(id); !ok {
					errs <- fmt.Errorf("stat %s missing", id)
					return
				}
				if _, err := r.Delete(id); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r.Used() != 0 {
		t.Errorf("Used = %d after balanced put/delete", r.Used())
	}
}

// Property: used bytes always equals the sum of stored object sizes.
func TestQuickUsedAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		r := New("d", "x", Disk, 0)
		var want int64
		for i, s := range sizes {
			if _, err := r.Put(fmt.Sprintf("o%d", i), int64(s), nil, sim.Epoch); err != nil {
				return false
			}
			want += int64(s)
		}
		if r.Used() != want {
			return false
		}
		// Delete half.
		for i := 0; i < len(sizes); i += 2 {
			if _, err := r.Delete(fmt.Sprintf("o%d", i)); err != nil {
				return false
			}
			want -= int64(sizes[i])
		}
		return r.Used() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: write time is monotone in object size for every class.
func TestQuickWriteTimeMonotone(t *testing.T) {
	classes := []Class{Memory, ParallelFS, Disk, Archive}
	f := func(a, b uint32, ci uint8) bool {
		r := New("d", "x", classes[int(ci)%len(classes)], 0)
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		dx, err1 := r.Put("x", x, nil, sim.Epoch)
		dy, err2 := r.Put("y", y, nil, sim.Epoch)
		return err1 == nil && err2 == nil && dx <= dy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPutSynthetic(b *testing.B) {
	r := New("d", "x", Disk, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Put(fmt.Sprintf("o%d", i), 1<<20, nil, sim.Epoch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChecksumAllocs: a digest costs the string it is kept as — the hash
// state, the sum and its hex form stay on the stack — for real content
// and for the pseudo-content of a synthetic object alike.
func TestChecksumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for _, o := range []*object{
		{info: ObjectInfo{ID: "/grid/work/17-4.dat", Size: 1024, Synthetic: true}},
		{info: ObjectInfo{ID: "/grid/work/17-4.dat", Size: 1024, Synthetic: true}, corrupted: true},
		{info: ObjectInfo{ID: "real", Size: 3}, data: []byte("abc")},
	} {
		var sum string
		got := testing.AllocsPerRun(100, func() { sum = computeChecksum(o) })
		if got > 1 || len(sum) != 32 {
			t.Errorf("computeChecksum(%+v) = %q in %.0f allocations, want 1 (parent commit: 3)", o.info, sum, got)
		}
	}
}

func BenchmarkChecksumReal(b *testing.B) {
	r := New("d", "x", Disk, 0)
	data := make([]byte, 1<<16)
	if _, err := r.Put("o", int64(len(data)), data, sim.Epoch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Checksum("o"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCorrupt(t *testing.T) {
	r := New("d", "x", Disk, 0)
	if _, err := r.Put("real", 3, []byte("abc"), sim.Epoch); err != nil {
		t.Fatal(err)
	}
	before, _, _ := r.Checksum("real")
	if err := r.Corrupt("real"); err != nil {
		t.Fatal(err)
	}
	after, _, _ := r.Checksum("real")
	if before == after {
		t.Errorf("corruption not visible in checksum")
	}
	// Synthetic corruption also perturbs the pseudo-digest.
	if _, err := r.Put("syn", 100, nil, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	sb, _, _ := r.Checksum("syn")
	if err := r.Corrupt("syn"); err != nil {
		t.Fatal(err)
	}
	sa, _, _ := r.Checksum("syn")
	if sb == sa {
		t.Errorf("synthetic corruption not visible")
	}
	if err := r.Corrupt("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Corrupt(missing) = %v", err)
	}
}
