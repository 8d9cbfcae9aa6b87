package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	windowSlices = 6   // the window is cut into this many slices; medians are over them
	maxFailures  = 200 // a closed loop against a refusing system spins; stop feeding it
	minP90Ops    = 100 // a window's p90 needs >= 10 samples beyond it
)

// opSample is one client-observed operation.
type opSample struct {
	start, end time.Duration // offsets from the window start
	kind       uint8
	ok         bool
}

// runner is the closed loop: callers goroutines, each sending its next
// op only when its previous one has been answered and verified.
type runner struct {
	inst    instance
	in      *input
	callers int
	next    atomic.Int64 // next generated op to hand out
	done    atomic.Int64 // ops answered correctly
	failed  atomic.Int64
	errOnce sync.Once
	err     error // first op failure, for the report

	// Set for a traced window only: every client request becomes a span
	// under trParent, named after its op kind.
	tr       *tracer
	trParent int
	kinds    []string
}

func newRunner(inst instance, in *input, callers int) *runner {
	return &runner{inst: inst, in: in, callers: callers}
}

// claim hands out the next op number, or false once limit is reached
// (limit <= 0: unlimited).
func (r *runner) claim(limit int64) (int64, bool) {
	for {
		cur := r.next.Load()
		if limit > 0 && cur >= limit {
			return 0, false
		}
		if r.next.CompareAndSwap(cur, cur+1) {
			return cur, true
		}
	}
}

// run drives the callers until the op limit or the deadline, whichever
// is set, and returns every op attempted.
func (r *runner) run(t0 time.Time, deadline time.Time, limit int64) []opSample {
	perCaller := make([][]opSample, r.callers)
	var wg sync.WaitGroup
	for c := 0; c < r.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r.failed.Load() < maxFailures {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				seq, ok := r.claim(limit)
				if !ok {
					return
				}
				err := r.inst.prepare(c)
				var sid int
				if r.tr != nil {
					sid = r.tr.begin("client", r.trParent, seq)
				}
				start := time.Now()
				var kind uint8
				if err == nil {
					kind, err = r.inst.op(c, seq, r.in.at(seq))
				}
				end := time.Now()
				if r.tr != nil {
					r.tr.endNamed(sid, "client."+r.kinds[kind])
				}
				if err != nil {
					r.failed.Add(1)
					r.errOnce.Do(func() { r.err = fmt.Errorf("op %d: %w", seq, err) })
				} else {
					r.done.Add(1)
				}
				perCaller[c] = append(perCaller[c], opSample{
					start: start.Sub(t0), end: end.Sub(t0), kind: kind, ok: err == nil,
				})
			}
		}(c)
	}
	wg.Wait()
	var all []opSample
	for _, s := range perCaller {
		all = append(all, s...)
	}
	return all
}

// warm runs exactly n ops — a fixed amount of work, so set-up time
// means the same thing on a fast and on a slow commit.
func (r *runner) warm(n int) error {
	r.run(time.Now(), time.Time{}, r.next.Load()+int64(n))
	if r.failed.Load() > 0 {
		return fmt.Errorf("warm-up: %d ops failed, first: %w", r.failed.Load(), r.err)
	}
	return nil
}

// windowResult is what one measured window observed from outside.
type windowResult struct {
	samples []opSample
	slices  []slice
	mallocs uint64 // runtime.MemStats.Mallocs delta over the window
	okOps   int64  // ops answered correctly inside the window
}

func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window measures dur of closed-loop load. This goroutine only sleeps
// to the slice boundaries and reads three counters at each.
func (r *runner) window(dur time.Duration) windowResult {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var res windowResult
	t0 := time.Now()
	done0 := r.done.Load()
	deadline := t0.Add(dur)
	samples := make(chan []opSample, 1)
	go func() { samples <- r.run(t0, deadline, 0) }()

	prevT, prevCPU, prevDone := t0, cpuMillis(), done0
	for i := 1; i <= windowSlices; i++ {
		time.Sleep(time.Until(t0.Add(dur * time.Duration(i) / windowSlices)))
		now, cpu, done := time.Now(), cpuMillis(), r.done.Load()
		res.slices = append(res.slices, slice{seconds: now.Sub(prevT).Seconds(), ops: done - prevDone, cpuMs: cpu - prevCPU})
		prevT, prevCPU, prevDone = now, cpu, done
	}
	runtime.ReadMemStats(&ms1)
	res.okOps = prevDone - done0
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.samples = <-samples
	return res
}

// latencies returns the client-observed latency of every attempted op
// in ms; a failed or refused op counts as +Inf.
func latencies(samples []opSample, kind int) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if kind >= 0 && int(s.kind) != kind {
			continue
		}
		if !s.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
	}
	return out
}

// timings are a window's four time-based figures as the client sees
// them: throughput and CPU per op as medians over the slices, latency
// percentiles over every op attempted in the window.
type timings struct{ opsPerS, p50, p90, cpuPerOp float64 }

func (res windowResult) timings() timings {
	lat := latencies(res.samples, -1)
	return timings{
		opsPerS:  medianSliceRate(res.slices),
		p50:      percentile(lat, 50),
		p90:      percentile(lat, 90),
		cpuPerOp: medianSliceCPU(res.slices),
	}
}

func countFailed(samples []opSample) (n int) {
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// liveHeapMB is HeapAlloc with nothing in flight and two collections
// behind it (the second reclaims what the first one's finalizers and
// sync.Pool clearing released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setUp builds one instance of w under root and warms it with the
// workload's fixed op count, returning how long that took.
func setUp(w workload, in *input, root string, from time.Time) (inst instance, r *runner, dir string, secs float64, err error) {
	if dir, err = mkRunDir(root); err != nil {
		return nil, nil, "", 0, err
	}
	if inst, err = w.build(w, in, dir); err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", 0, fmt.Errorf("set-up: %w", err)
	}
	r = newRunner(inst, in, w.callers)
	if err = r.warm(w.warmup); err == nil {
		err = inst.settle()
	}
	if err != nil {
		inst.close()
		os.RemoveAll(dir)
		return nil, nil, "", 0, err
	}
	return inst, r, dir, time.Since(from).Seconds(), nil
}
