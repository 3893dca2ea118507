package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Host speed calibration. On a shared machine the speed of the CPUs
// drifts by tens of percent within seconds as neighbours load it, which
// swamps the differences the end-to-end metrics exist to find. While
// its own load is paused — before every boot of the setup and every
// stretch of the timed phase (see runLoad) — the benchmark therefore
// reads two yardsticks that share no code with the repository: the
// wall time of a register-only kernel, which sees the CPU time another
// process takes, and the CPU time of round trips to the reference
// service (reference.go), which sees how much slower allocation-heavy,
// branchy code like the server's runs while neighbours contend for the
// cores and caches. Both run on as many goroutines as the stretch after
// them keeps ops in flight. Each stretch's times are divided by the
// reading's slowdown and its rates multiplied by it, which puts every
// stretch in nominal-host units; the metrics are then medians over
// stretches and ops. Where ops are short enough (run-paper, run-churn),
// sequential stretches instead time one reference round trip before
// each op and divide the op's latency by the probes around it (see
// probe). A change to the code under test cannot move the yardsticks; a
// stretch in which the host runs everything 20% slower moves both
// alike.

// refWeight is the reference service's weight in a reading's slowdown,
// the kernel's being the rest. The server's code is less sensitive than
// the reference to contention and the kernel insensitive, so neither
// alone tracks it. Over six sets of 8 to 10 runs per workload, one of
// them taken with the host twice as slow as another, weights of 0, 1/2,
// 3/4 and 1 left worst quartile spreads of latency_ms and
// throughput_ops_s of 40, 22, 18 and 21% (sets taken an hour apart
// pooled), and moved their medians between two sets by up to 43, 23, 12
// and 13%.
const refWeight = 0.75

// calibNominal is the kernel's median time on an unloaded 2-CPU Xeon
// host, the unit the reported times are expressed in.
const calibNominal = 2200 * time.Microsecond

const calibIters = 1_000_000

// calibKernel is xorshift64 in registers: no memory traffic, no
// allocation, nothing the runtime or the code under test can change.
func calibKernel() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibSink keeps the kernel's results alive.
var calibSink uint64

// hostSpeed reads the host's slowdown over a run.
type hostSpeed struct {
	perRead  int       // kernel calls per goroutine and reading
	readings []float64 // every reading's slowdown, in order
	ref      *refService
}

// read times perRead kernel calls on each of threads goroutines, and
// as many clients' reference round trips, and returns the slowdown
// combining theirs against nominal: 1 is a nominal host, 1.2 one
// running 20% slower.
// The kernel's median call ignores calls the host preempted. Call it
// only while the benchmark's own load is idle. It first collects the
// garbage the load left, whose collection would otherwise be charged to
// the reference round trips; every stretch after a reading therefore
// also starts from a collected heap.
func (h *hostSpeed) read(threads int) (float64, error) {
	runtime.GC()
	calls := make([]float64, threads*h.perRead)
	sinks := make([]uint64, threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < h.perRead; i++ {
				t := time.Now()
				sinks[g] += calibKernel()
				calls[g*h.perRead+i] = float64(time.Since(t))
			}
		}(g)
	}
	wg.Wait()
	for _, s := range sinks {
		calibSink += s
	}
	alu := median(calls) / float64(calibNominal)
	ref, err := refReading(h.ref.client, threads)
	if err != nil {
		return 0, err
	}
	f := math.Pow(ref, refWeight) * math.Pow(alu, 1-refWeight)
	h.readings = append(h.readings, f)
	return f, nil
}

// probeNominal sets the unit of probed latencies: it is near a probe's
// wall time while the readings put the host at nominal, so that probed
// and read latencies come out within about a quarter of each other.
const probeNominal = 370 * time.Microsecond

// probe times one round trip to the reference service and returns its
// slowdown against nominal. It is the reading of probed sequential
// stretches (runProbedStretch), taken around every op: a round trip
// takes about as long as one of their ops, so the probes follow the
// host's speed from op to op, where a reading before a stretch sees it
// only once in half a second. Its wall time also sees the moments the
// host ran another process, as the op's latency does.
func probe(c *client) (float64, error) {
	t := time.Now()
	if err := c.sync(refOp); err != nil {
		return 0, fmt.Errorf("reference service: %w", err)
	}
	return float64(time.Since(t)) / float64(probeNominal), nil
}

// factor is the median slowdown over every reading of the run.
func (h *hostSpeed) factor() float64 { return median(h.readings) }

// processCPU is the CPU time the process has used so far, user and
// system, over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
