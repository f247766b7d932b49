package mrsim

import "container/heap"

// SlotPool models a fixed set of task slots (map or reduce) shared by all
// jobs of a workflow run. Tasks are assigned greedily to the earliest-free
// slot, which is how concurrently runnable jobs end up overlapping on the
// cluster — the effect the Post-processing Jobs workflow depends on
// (Section 7.2: packing loses when the cluster can run the jobs
// concurrently).
//
// The pool owns ScheduleUniform's scratch buffers, so pricing a job on a
// warmed pool allocates nothing. A SlotPool is not safe for concurrent use.
type SlotPool struct {
	free timeHeap
	// Per-slot scratch of ScheduleUniform's water-level path, grown on
	// demand. It is not pool state: Snapshot and Restore ignore it, and
	// every use overwrites all n entries it reads.
	starts []float64
	counts []int
}

// NewSlotPool returns a pool of n slots, all free at time zero.
func NewSlotPool(n int) *SlotPool {
	if n < 1 {
		n = 1
	}
	p := &SlotPool{free: make(timeHeap, n)}
	heap.Init(&p.free)
	return p
}

// Schedule places a task that becomes ready at `ready` and runs for `dur`
// seconds on the earliest-free slot, returning its start and end times.
func (p *SlotPool) Schedule(ready, dur float64) (start, end float64) {
	slotFree := p.free[0]
	start = ready
	if slotFree > start {
		start = slotFree
	}
	end = start + dur
	p.free[0] = end
	heap.Fix(&p.free, 0)
	return start, end
}

// EarliestFree reports the earliest time any slot is available.
func (p *SlotPool) EarliestFree() float64 { return p.free[0] }

// PoolSnapshot is a saved SlotPool state (see Snapshot/Restore).
type PoolSnapshot struct {
	free []float64
}

// Snapshot captures the pool's exact internal state. The copy preserves the
// heap's slice layout, not just the multiset of free times: ScheduleUniform
// breaks ties in slice order, so replaying the same schedule from a restored
// snapshot is bit-for-bit identical to never having diverged — the property
// the incremental What-if estimator depends on.
func (p *SlotPool) Snapshot() PoolSnapshot {
	s := PoolSnapshot{free: make([]float64, len(p.free))}
	copy(s.free, p.free)
	return s
}

// Restore rewinds the pool to a snapshot taken from a pool of the same
// size. It reuses the pool's backing storage, so restoring on a hot path
// allocates nothing.
func (p *SlotPool) Restore(s PoolSnapshot) {
	if len(p.free) != len(s.free) {
		p.free = make(timeHeap, len(s.free))
	}
	copy(p.free, s.free)
}

// ScheduleUniform places count equal-duration tasks, all ready at `ready`,
// with greedy earliest-slot assignment, and returns the time the last task
// ends. It is equivalent to calling Schedule count times but costs
// O(slots log slots) instead of O(count log slots) — the What-if engine
// uses it to price jobs with thousands of uniform tasks cheaply.
func (p *SlotPool) ScheduleUniform(ready, dur float64, count int) float64 {
	if count <= 0 {
		return ready
	}
	n := len(p.free)
	if dur <= 0 {
		// Zero-length tasks occupy no slot time: they all run on the
		// earliest-free slot the moment it is available.
		if p.free[0] > ready {
			return p.free[0]
		}
		return ready
	}
	if count <= 2*n {
		end := ready
		for i := 0; i < count; i++ {
			if _, e := p.Schedule(ready, dur); e > end {
				end = e
			}
		}
		return end
	}
	if cap(p.starts) < n {
		p.starts = make([]float64, n)
		p.counts = make([]int, n)
	}
	// Effective start per slot.
	starts, counts := p.starts[:n], p.counts[:n]
	lo, hi := 0.0, 0.0
	for i, f := range p.free {
		s := f
		if s < ready {
			s = ready
		}
		starts[i] = s
		if i == 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	// Binary search the water level L: the smallest time by which `count`
	// tasks can have completed under greedy assignment.
	fits := func(L float64) int {
		total := 0
		for _, s := range starts {
			if L > s {
				total += int((L - s) / dur)
			}
			if total >= count {
				return total
			}
		}
		return total
	}
	hiL := hi + float64(count)*dur/float64(n) + 2*dur
	for fits(hiL) < count {
		hiL += float64(count) * dur
	}
	loL := lo
	for i := 0; i < 60 && hiL-loL > 1e-9*(1+hiL); i++ {
		mid := (loL + hiL) / 2
		if fits(mid) >= count {
			hiL = mid
		} else {
			loL = mid
		}
	}
	// Assign per-slot task counts at the found level, trimming surplus.
	total := 0
	for i, s := range starts {
		counts[i] = 0
		if hiL > s {
			counts[i] = int((hiL - s) / dur)
			total += counts[i]
		}
	}
	for i := 0; total > count; i = (i + 1) % n {
		if counts[i] > 0 {
			counts[i]--
			total--
		}
	}
	end := ready
	for i := range starts {
		if counts[i] == 0 {
			continue
		}
		e := starts[i] + float64(counts[i])*dur
		p.free[i] = e
		if e > end {
			end = e
		}
	}
	heap.Init(&p.free)
	return end
}

type timeHeap []float64

func (h timeHeap) Len() int            { return len(h) }
func (h timeHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *timeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
