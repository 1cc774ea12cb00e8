package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// On a shared host other tenants slow each vCPU by 20-40% for seconds to
// minutes at a time (a probe running one Count back to back swings between
// 0.50 and 0.76 GB/s). Run-to-run spreads of raw times were 13-40%, wider
// than any useful regression bound. So before every window the benchmark
// reads the speed of the vCPUs the program runs on with a reference kernel
// of its own and reports the window's times at the reference speed. The
// kernel shares no code with the program and runs between rounds, when no
// operation is in flight.
const (
	// refGBps is the reference speed times are scaled to: about the
	// kernel's speed on this host when undisturbed (readings ran from 0.5
	// to 1.13 GB/s), so values read close to raw ones here.
	refGBps = 1.0
	// refElasticity is how far the program's speed follows the kernel's:
	// measured between the host's slow and fast spells, and between sets
	// of runs a quarter of an hour apart, the program moved by 0.6-0.86 of
	// the kernel's change in log terms (the kernel is L2-resident, the
	// program partly memory-bound).
	refElasticity = 0.75
	// refSlices readings of refSlice each per goroutine; each goroutine
	// keeps its fastest, which discards readings a GC cycle or an
	// interrupt happened to share a vCPU with.
	refSlices = 3
	refSlice  = 2 * time.Millisecond
)

// hostScale is the factor that turns a time measured at host speed h
// (GB/s, a hostSpeed reading) into the time at the reference speed.
func hostScale(h float64) float64 { return math.Pow(h/refGBps, refElasticity) }

// refBuf is the kernel's input: 1 MiB of JSON-like text made from a fixed
// seed, L2-resident, so the kernel measures the core rather than the
// benchmark's own memory traffic.
var refBuf = func() []byte {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	rng := rand.New(rand.NewSource(1))
	var b []byte
	for len(b) < 1<<20 {
		b = fmt.Appendf(b, `{"id":%d,"name":"%s %s","tags":["%s","%s"],"score":%d.%d},`,
			rng.Intn(1e6), words[rng.Intn(8)], words[rng.Intn(8)], words[rng.Intn(8)], words[rng.Intn(8)],
			rng.Intn(100), rng.Intn(100))
	}
	return b[:1<<20]
}()

// refKernel counts quotes and braces over refBuf and returns its fastest
// slice's speed in GB/s, and the count, which keeps the loop live.
func refKernel() (gbps float64, count int) {
	for i := 0; i < refSlices; i++ {
		start := time.Now()
		bytes := 0
		for time.Since(start) < refSlice {
			for _, c := range refBuf {
				if c == '"' || c == '{' {
					count++
				}
			}
			bytes += len(refBuf)
		}
		gbps = max(gbps, float64(bytes)/time.Since(start).Seconds()/1e9)
	}
	return gbps, count
}

// refSink keeps the kernel's counts live.
var refSink int

// hostSpeed reads the speed of the vCPUs the program runs on, in GB/s. A
// library workload runs the program on the calling goroutine, so cpus is
// 1 and the kernel runs right there; the daemon keeps every vCPU busy, so
// the kernel runs on that many goroutines at once and the mean is taken.
func hostSpeed(cpus int) float64 {
	if cpus == 1 {
		v, n := refKernel()
		refSink += n
		return v
	}
	speeds := make([]float64, cpus)
	counts := make([]int, cpus)
	var wg sync.WaitGroup
	for i := range speeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			speeds[i], counts[i] = refKernel()
		}()
	}
	wg.Wait()
	sum := 0.0
	for i, v := range speeds {
		sum += v
		refSink += counts[i]
	}
	return sum / float64(cpus)
}
