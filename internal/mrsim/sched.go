package mrsim

import "slices"

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
	// Scratch of ScheduleUniform's water-level path, grown on demand:
	// first the sorted distinct slot starts and their multiplicities, then
	// the per-slot task counts. It is not pool state: Snapshot and Restore
	// ignore it, and every use overwrites every entry it reads.
	starts []float64
	counts []int
}

// NewSlotPool returns a pool of n slots, all free at time zero.
func NewSlotPool(n int) *SlotPool {
	if n < 1 {
		n = 1
	}
	// All-zero free times are already a heap.
	return &SlotPool{free: make(timeHeap, n)}
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
	p.free.down(0)
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
// on the pool and returns the time the last task ends — the end that
// calling Schedule count times would return. Up to 2 × slots tasks it does
// call Schedule per task. Beyond that it finds the water level analytically,
// gives each slot the tasks that end by it, and trims the surplus in slice
// order rather than from the slots whose last task ends latest, so the
// slots' free times afterwards can differ from the greedy ones even though
// the end does not. That path costs one O(slots log slots) sort of the slot
// starts plus at most 60 × (distinct starts) for the water-level search, not
// O(count log slots): the What-if engine prices jobs of thousands of uniform
// tasks through it.
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
	startOf := func(i int) float64 {
		s := p.free[i]
		if s < ready {
			s = ready
		}
		return s
	}
	// Effective start per slot, sorted and run-length encoded: starts[k]
	// is the k-th distinct start and counts[k] its number of slots.
	starts, counts := p.starts[:n], p.counts[:n]
	for i := range starts {
		starts[i] = startOf(i)
	}
	slices.Sort(starts)
	d := 0
	for _, s := range starts {
		if d > 0 && s == starts[d-1] {
			counts[d-1]++
			continue
		}
		starts[d], counts[d] = s, 1
		d++
	}
	distinct, mult := starts[:d], counts[:d]
	lo, hi := distinct[0], 0.0
	if s := distinct[d-1]; s > hi {
		hi = s
	}
	// Binary search the water level L: the smallest time by which `count`
	// tasks can have completed under greedy assignment. Each slot's term is
	// int((L-s)/dur), so the grouped sum is the per-slot sum exactly.
	fits := func(L float64) int {
		total := 0
		for k, s := range distinct {
			if s >= L {
				break
			}
			total += mult[k] * int((L-s)/dur)
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
	for i := range counts {
		counts[i] = 0
		if s := startOf(i); hiL > s {
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
	for i, c := range counts {
		if c == 0 {
			continue
		}
		e := startOf(i) + float64(c)*dur
		p.free[i] = e
		if e > end {
			end = e
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		p.free.down(i)
	}
	return end
}

// timeHeap is a binary min-heap of slot free times. Its layout is the one
// container/heap would produce: ScheduleUniform's trim and Snapshot both
// depend on it.
type timeHeap []float64

// down sifts h[i] toward the leaves with container/heap's comparisons —
// the right child only when strictly smaller than the left, and a stop as
// soon as the smaller child is not below the sifted value — but moves the
// value through a hole instead of swapping at every level.
func (h timeHeap) down(i int) {
	x := h[i]
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j2 := j + 1; j2 < len(h) && h[j2] < h[j] {
			j = j2
		}
		if !(h[j] < x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}
