package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The reference kernel is a frozen, stdlib-only computation sampled between
// measured rounds. Timing metrics are reported relative to the run's median
// sample, so that a slow phase of a shared host, which slows the kernel and
// the workload alike, cancels out of the ratio.
//
// One sample has three parts, and each part runs on every processor at once
// and lasts until the slowest one finishes:
//
//   - a dependent chain of float multiply-adds (processor speed);
//   - a pointer chase through a 32 MB random cycle (memory latency and cache
//     contention, which slow the allocation-heavy workloads here far more
//     than they slow arithmetic);
//   - building and dropping a tree of small heap objects (the allocator and
//     the collector, in the process's own heap).
//
// The parts run in parallel because the slow phases of this kind of host are
// mostly a neighbour taking part of one virtual CPU or of the shared cache: a
// single-threaded kernel migrates to the free processor and sees nothing,
// while every workload here keeps both processors busy (the search and the
// collector are parallel, and the servers run beside their clients).
// README.md has the calibration against a serial loop, a parallel loop alone,
// and the issue's JSON-plus-float proposal.
//
// Do not change it: every recorded job_time_rel and throughput_rel is in its
// units.

const (
	refFloatIters = 10_000_000
	refChaseLen   = 8 << 20 // uint32 entries per processor: 32 MB
	refChaseSteps = 250_000
	refAllocNodes = 250_000
)

type refNode struct {
	left, right *refNode
	vals        []float64
}

var (
	refOnce   sync.Once
	refChains [][]uint32 // one random cycle per processor
	// refSink keeps the parts' results observable so that the compiler
	// cannot discard the work.
	refSink struct {
		sync.Mutex
		x float64
	}
)

// refInit builds the chase cycles with Sattolo's algorithm from fixed seeds:
// one cycle through every entry, so that every step is a dependent load from
// an unpredictable address.
func refInit() {
	refChains = make([][]uint32, runtime.GOMAXPROCS(0))
	for p := range refChains {
		rng := rand.New(rand.NewSource(int64(p) + 1))
		c := make([]uint32, refChaseLen)
		for i := range c {
			c[i] = uint32(i)
		}
		for i := len(c) - 1; i > 0; i-- {
			j := rng.Intn(i)
			c[i], c[j] = c[j], c[i]
		}
		refChains[p] = c
	}
}

// onEveryProcessor runs part once per processor, concurrently, and waits for
// all of them.
func onEveryProcessor(part func(p int) float64) {
	var wg sync.WaitGroup
	for p := range refChains {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			x := part(p)
			refSink.Lock()
			refSink.x += x
			refSink.Unlock()
		}(p)
	}
	wg.Wait()
}

func refTree(n int) *refNode {
	if n == 0 {
		return nil
	}
	half := (n - 1) / 2
	return &refNode{left: refTree(half), right: refTree(n - 1 - half), vals: make([]float64, 3)}
}

// refKernel runs the reference computation once and returns its wall time
// in milliseconds.
func refKernel() float64 {
	refOnce.Do(refInit)
	start := time.Now()
	onEveryProcessor(func(int) float64 {
		x := 1.0
		for i := 0; i < refFloatIters; i++ {
			x = x*1.0000001 + 1e-9
		}
		return x
	})
	onEveryProcessor(func(p int) float64 {
		c, i := refChains[p], uint32(0)
		for s := 0; s < refChaseSteps; s++ {
			i = c[i]
		}
		return float64(i)
	})
	onEveryProcessor(func(int) float64 { return float64(len(refTree(refAllocNodes).vals)) })
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
