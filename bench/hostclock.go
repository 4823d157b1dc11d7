package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants. On the 2-vCPU guest it
// was written on, the host's speed moves by 20-30 % for minutes at a time
// and by more from one second to the next, and a window that keeps every
// core busy inherits all of it: ten runs of the same code spread by up to
// 0.28 of their median, and two sets taken an hour apart differed by 0.25.
// No bound the contract allows resolves that, so the benchmark measures the
// host while it measures the system: a hostClock times a small fixed task
// every hostTick for the whole life of the process, and the slowdown of a
// phase is how much longer the task took during it than hostRefUs. A
// window's metrics are then restated for a host of reference speed
// (atReferenceSpeed). The task is private to the benchmark, so a change to
// the system under test cannot move it.
//
// Speed is half of it. The guest's scheduler also leaves one vCPU idle for
// up to seconds at a time while two of the process's threads share the other
// (both Ps run goroutines throughout; /proc/stat shows the idle CPU), and
// another process of the guest or the hypervisor can take a CPU away. The
// reference task does not see any of that, but the scheduler books it: the
// time each thread stood ready without a CPU. A phase's CPU supply share is
// what the process ran over what it was ready to run (supplyShare), and the
// slowdown applied to a saturated window is the clock's over that share
// (windowSlowdown). Without it twenty overload runs spread 0.10 after the
// clock's correction alone; with it 0.05.

const (
	hostTick = 10 * time.Millisecond
	// hostRefUs is what the reference task takes on that guest when its
	// neighbours are quiet. It only fixes the scale: a slowdown of 1 is that
	// machine at its best.
	hostRefUs = 90.0
	// hostStall caps a sample at this multiple of the phase's 10th
	// percentile: a sample far above it was descheduled in the middle of the
	// task, which says nothing about speed.
	hostStall = 3.0
)

var (
	hostFloats = func() []float32 {
		b := make([]float32, 8192)
		for i := range b {
			b[i] = float32(i%7) * 0.25
		}
		return b
	}()
	hostInts  = make([]int, 1024)
	hostSinkF float32
	hostSeed  = uint32(2463534242)
)

// hostTask is the reference task: four independent float32 multiply-add
// chains over 32 KiB (the shape of the nn kernels' inner loops), then a sort
// of 1024 pseudo-random ints (branches and compares, the shape of the solver).
// About 90 us; at one run per hostTick, under one percent of one core.
func hostTask() {
	var s0, s1, s2, s3 float32
	for pass := 0; pass < 12; pass++ {
		b := hostFloats
		for i := 0; i+4 <= len(b); i += 4 {
			s0 += b[i] * 1.0001
			s1 += b[i+1] * 1.0001
			s2 += b[i+2] * 1.0001
			s3 += b[i+3] * 1.0001
		}
	}
	hostSinkF = s0 + s1 + s2 + s3
	x := hostSeed
	for i := range hostInts {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		hostInts[i] = int(x & 0xffff)
	}
	hostSeed = x
	sort.Ints(hostInts)
}

type hostSample struct {
	at time.Time
	us float64
}

// hostClock owns the sampling goroutine; stop returns once it has exited.
type hostClock struct {
	mu      sync.Mutex
	samples []hostSample
	quit    chan struct{}
	exited  chan struct{}
}

func startHostClock() *hostClock {
	h := &hostClock{quit: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(h.exited)
		tick := time.NewTicker(hostTick)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				t0 := time.Now()
				hostTask()
				s := hostSample{at: t0, us: us(time.Since(t0))}
				h.mu.Lock()
				h.samples = append(h.samples, s)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *hostClock) stop() {
	close(h.quit)
	<-h.exited
}

// slowdown is the host's slowdown over [from, to]: the geometric mean of the
// reference task's times in that interval over hostRefUs. Without a sample
// in the interval it is 1.
func (h *hostClock) slowdown(from, to time.Time) float64 {
	h.mu.Lock()
	var xs []float64
	for _, s := range h.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			xs = append(xs, s.us)
		}
	}
	h.mu.Unlock()
	return slowdownOf(xs)
}

func slowdownOf(taskUs []float64) float64 {
	if len(taskUs) == 0 {
		return 1
	}
	limit := hostStall * percentile(taskUs, 0.10)
	sum := 0.0
	for _, x := range taskUs {
		sum += math.Log(min(x, limit))
	}
	return math.Exp(sum/float64(len(taskUs))) / hostRefUs
}

// cpuLedger is what the guest's scheduler has booked for this process so
// far: CPU time its threads ran, time they stood ready on a run queue without
// a CPU, and time the hypervisor took from the whole guest.
type cpuLedger struct{ ran, waited, stolen time.Duration }

// readCPULedger sums /proc/self/task/*/schedstat ("ran-ns waited-ns slices"
// per thread) and reads the steal column of /proc/stat (USER_HZ = 100). ok is
// false where either is missing; Go does not retire the threads that run
// goroutines, so the sums only grow.
func readCPULedger() (l cpuLedger, ok bool) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return l, false
	}
	for _, t := range tasks {
		raw, err := os.ReadFile("/proc/self/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) < 2 {
			return l, false
		}
		ran, err1 := strconv.ParseInt(f[0], 10, 64)
		waited, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 != nil || err2 != nil {
			return l, false
		}
		l.ran += time.Duration(ran)
		l.waited += time.Duration(waited)
	}
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return l, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return l, false
	}
	stolen, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return l, false
	}
	l.stolen = time.Duration(stolen) * 10 * time.Millisecond
	return l, true
}

// supplyShare is the share of the CPU time the process was ready to use
// between two readings that it was given. What it was ready to use is what it
// ran plus what its threads waited on a run queue plus what the hypervisor
// stole, but never more than nproc CPUs for the time elapsed: a process that
// keeps more threads ready than there are CPUs is not owed the difference.
func supplyShare(a, b cpuLedger, elapsed time.Duration, nproc int) float64 {
	ran := (b.ran - a.ran).Seconds()
	ready := ran + (b.waited - a.waited).Seconds() + (b.stolen - a.stolen).Seconds()
	ready = min(ready, elapsed.Seconds()*float64(nproc))
	if ran <= 0 || ready <= ran {
		return 1
	}
	return ran / ready
}

// hostPhase marks the start of a phase of the run whose host conditions are
// wanted: open it with begin, close it with end.
type hostPhase struct {
	from   time.Time
	ledger cpuLedger
	ok     bool
}

func beginPhase() hostPhase {
	p := hostPhase{from: time.Now()}
	p.ledger, p.ok = readCPULedger()
	return p
}

// end returns the phase's clock slowdown and its CPU supply share.
func (h *hostClock) end(p hostPhase, nproc int) (clock, supply float64) {
	now := time.Now()
	clock, supply = h.slowdown(p.from, now), 1
	if l, ok := readCPULedger(); ok && p.ok {
		supply = supplyShare(p.ledger, l, now.Sub(p.from), nproc)
	}
	return clock, supply
}
