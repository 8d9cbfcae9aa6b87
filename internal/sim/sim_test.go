package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(Epoch)
	if !c.Now().Equal(Epoch) {
		t.Fatalf("start = %v, want %v", c.Now(), Epoch)
	}
	c.Sleep(90 * time.Second)
	if got := c.Now().Sub(Epoch); got != 90*time.Second {
		t.Errorf("after Sleep: %v", got)
	}
	c.Sleep(time.Hour)
	if got := c.Now().Sub(Epoch); got != time.Hour+90*time.Second {
		t.Errorf("after a second Sleep: %v", got)
	}
	c.Sleep(-time.Hour)
	if got := c.Now().Sub(Epoch); got != time.Hour+90*time.Second {
		t.Errorf("negative sleep must be a no-op: %v", got)
	}
}

func TestVirtualClockConcurrent(t *testing.T) {
	c := NewVirtualClock(Epoch)
	done := make(chan struct{})
	const n, per = 16, 100
	for i := 0; i < n; i++ {
		go func() {
			for j := 0; j < per; j++ {
				c.Sleep(time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	if got := c.Now().Sub(Epoch); got != n*per*time.Millisecond {
		t.Errorf("concurrent advances lost: %v", got)
	}
}

// TestVirtualClockConcurrentSleeps: sleepers of different lengths on
// many goroutines lose no advance — the clock ends at its start plus
// their sum — and a reader racing them never sees it go backwards.
func TestVirtualClockConcurrentSleeps(t *testing.T) {
	c := NewVirtualClock(Epoch)
	const sleepers, per = 8, 200
	var want time.Duration
	for g := 1; g <= sleepers; g++ {
		want += per * time.Duration(g) * time.Microsecond
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := c.Now()
			for {
				now := c.Now()
				if now.Before(last) {
					t.Errorf("Now went back from %v to %v", last, now)
					return
				}
				last = now
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	var sleepersDone sync.WaitGroup
	for g := 1; g <= sleepers; g++ {
		sleepersDone.Add(1)
		go func(d time.Duration) {
			defer sleepersDone.Done()
			for j := 0; j < per; j++ {
				c.Sleep(d)
			}
		}(time.Duration(g) * time.Microsecond)
	}
	sleepersDone.Wait()
	close(stop)
	readers.Wait()
	if got := c.Now().Sub(Epoch); got != want {
		t.Errorf("after the sleeps the clock reads start+%v, want start+%v", got, want)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = RealClock{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(t0) {
		t.Errorf("real clock did not advance")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 20; i++ {
		if NewRand(42).Intn(1<<40) != c.Intn(1<<40) {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds should diverge")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if s := r.FileSize(1<<20, 1.0); s < 1 || s > 1<<40 {
			t.Fatalf("FileSize out of range: %d", s)
		}
		if e := r.Exp(3.0); e < 0 {
			t.Fatalf("Exp negative: %v", e)
		}
		if z := r.Zipf(100, 1.2); z >= 100 {
			t.Fatalf("Zipf out of range: %d", z)
		}
	}
	// Median sanity for log-normal file sizes: half the mass near median.
	var below int
	for i := 0; i < 2000; i++ {
		if r.FileSize(1<<20, 1.0) < 1<<20 {
			below++
		}
	}
	if below < 800 || below > 1200 {
		t.Errorf("log-normal median off: %d/2000 below median", below)
	}
	p := r.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Perm not a permutation: %v", p)
	}
}

func TestNetworkDefaults(t *testing.T) {
	n := NewNetwork()
	// Intra-domain is a fast LAN.
	lan := n.LinkBetween("sdsc", "sdsc")
	if lan.Bandwidth < DefaultBandwidth {
		t.Errorf("intra-domain link should be fast, got %v", lan.Bandwidth)
	}
	// Unconfigured pair gets the default.
	d, err := n.TransferTime("sdsc", "cern", 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := 50*time.Millisecond + time.Second // 10 MiB at 10 MiB/s + latency
	if d != want {
		t.Errorf("TransferTime = %v, want %v", d, want)
	}
}

func TestNetworkConfiguredLinks(t *testing.T) {
	n := NewNetwork()
	n.SetSymmetric("cern", "fnal", Link{Bandwidth: 100 << 20, Latency: 100 * time.Millisecond})
	d1, _ := n.TransferTime("cern", "fnal", 100<<20)
	d2, _ := n.TransferTime("fnal", "cern", 100<<20)
	if d1 != d2 {
		t.Errorf("symmetric link asymmetric: %v vs %v", d1, d2)
	}
	if d1 != 100*time.Millisecond+time.Second {
		t.Errorf("configured link time = %v", d1)
	}
	n.SetLink("a", "b", Link{Bandwidth: 0})
	if _, err := n.TransferTime("a", "b", 1); err == nil {
		t.Errorf("zero-bandwidth link should error")
	}
}

func TestNetworkTrafficAccounting(t *testing.T) {
	n := NewNetwork()
	if _, err := n.RecordTransfer("a", "b", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RecordTransfer("a", "b", 500); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RecordTransfer("b", "c", 300); err != nil {
		t.Fatal(err)
	}
	if got := n.Traffic("a", "b"); got != 1500 {
		t.Errorf("Traffic(a,b) = %d", got)
	}
	if got := n.TotalTraffic(); got != 1800 {
		t.Errorf("TotalTraffic = %d", got)
	}
	rep := n.TrafficReport()
	if len(rep) != 2 || rep[0].Src != "a" || rep[0].Dst != "b" || rep[0].Bytes != 1500 {
		t.Errorf("TrafficReport = %v", rep)
	}
	if rep[0].String() == "" {
		t.Errorf("PairTraffic.String empty")
	}
	n.Reset()
	if n.TotalTraffic() != 0 {
		t.Errorf("Reset did not clear traffic")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Charge("disk1", 2*time.Second)
	m.Charge("disk1", 3*time.Second)
	m.Charge("disk2", 4*time.Second)
	if m.Busy("disk1") != 5*time.Second {
		t.Errorf("Busy(disk1) = %v", m.Busy("disk1"))
	}
	if m.Busy("disk2") != 4*time.Second || m.Busy("idle") != 0 {
		t.Errorf("Busy(disk2) = %v, Busy(idle) = %v", m.Busy("disk2"), m.Busy("idle"))
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{5 << 20, "5.0 MiB"},
		{3 << 30, "3.0 GiB"},
		{2 << 40, "2.0 TiB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.in); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// Property: transfer time is monotone in bytes for any positive-bandwidth
// link, and never below latency.
func TestQuickTransferMonotone(t *testing.T) {
	n := NewNetwork()
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<30)), int64(b%(1<<30))
		if x > y {
			x, y = y, x
		}
		dx, err1 := n.TransferTime("p", "q", x)
		dy, err2 := n.TransferTime("p", "q", y)
		if err1 != nil || err2 != nil {
			return false
		}
		return dx <= dy && dx >= n.LinkBetween("p", "q").Latency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a lane's busy time is the sum of the charges made to it.
func TestQuickMeterInvariants(t *testing.T) {
	f := func(charges []uint16) bool {
		m := NewMeter()
		sums := map[string]time.Duration{}
		for i, c := range charges {
			lane := string(rune('a' + i%5))
			m.Charge(lane, time.Duration(c)*time.Millisecond)
			sums[lane] += time.Duration(c) * time.Millisecond
		}
		for lane, want := range sums {
			if m.Busy(lane) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransferTime(b *testing.B) {
	n := NewNetwork()
	n.SetLink("a", "b", Link{Bandwidth: 100 << 20, Latency: 10 * time.Millisecond})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.TransferTime("a", "b", 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRealClockSleepAllocs: a real-clock sleep blocks for its duration
// and costs a goroutine that never slept before — as an execution's run
// goroutine is — no allocation, where time.Sleep would allocate the
// goroutine's timer.
func TestRealClockSleepAllocs(t *testing.T) {
	var c RealClock
	start := time.Now()
	c.Sleep(2 * time.Millisecond)
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("slept %v, want at least 2ms", el)
	}
	fresh := func(sleep bool) float64 {
		return testing.AllocsPerRun(50, func() {
			done := make(chan struct{})
			go func() {
				if sleep {
					c.Sleep(time.Microsecond)
				}
				close(done)
			}()
			<-done
		})
	}
	if with, without := fresh(true), fresh(false); with > without {
		t.Errorf("a first sleep on a fresh goroutine allocates %.0f, want %.0f", with, without)
	}
}
