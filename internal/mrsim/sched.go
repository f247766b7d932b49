package mrsim

import "slices"

// SlotPool models a fixed set of task slots (map or reduce) shared by all
// jobs of a workflow run. Tasks are assigned greedily to the earliest-free
// slot, which is how concurrently runnable jobs end up overlapping on the
// cluster — the effect the Post-processing Jobs workflow depends on
// (Section 7.2: packing loses when the cluster can run the jobs
// concurrently).
//
// Slots are interchangeable, so the pool keeps only the multiset of their
// free times: ascending runs of distinct times, each with the number of
// slots free at it. A What-if pool of a hundred-odd slots holds one or two
// runs, so pricing a job costs O(runs), not O(slots); the simulator's pool,
// whose tasks all differ in length, holds one run per slot. A SlotPool is
// not safe for concurrent use.
type SlotPool struct {
	// The runs live in buf[lo:hi]. Taking the first run advances lo; an
	// insertion shifts the runs after it one place back, first moving the
	// runs to the front of buf when they reach its end, so buf grows only
	// when the runs fill it.
	buf    []slotRun
	lo, hi int
	slots  int
}

// slotRun is n slots, all free at time t.
type slotRun struct {
	t float64
	n int
}

// NewSlotPool returns a pool of n slots, all free at time zero.
func NewSlotPool(n int) *SlotPool {
	if n < 1 {
		n = 1
	}
	p := &SlotPool{buf: make([]slotRun, 4), hi: 1, slots: n}
	p.buf[0] = slotRun{0, n}
	return p
}

// Schedule places a task that becomes ready at `ready` and runs for `dur`
// seconds on the earliest-free slot, returning its start and end times.
func (p *SlotPool) Schedule(ready, dur float64) (start, end float64) {
	start = ready
	if slotFree := p.buf[p.lo].t; slotFree > start {
		start = slotFree
	}
	end = start + dur
	p.take(1)
	p.insert(end, 1)
	return start, end
}

// EarliestFree reports the earliest time any slot is available.
func (p *SlotPool) EarliestFree() float64 { return p.buf[p.lo].t }

// take removes c ≤ the first run's slots from the first run.
func (p *SlotPool) take(c int) {
	if p.buf[p.lo].n -= c; p.buf[p.lo].n == 0 {
		p.lo++
	}
}

// insert adds c slots free at t, merging them into a run already at t.
func (p *SlotPool) insert(t float64, c int) {
	i, j := p.lo, p.hi
	for i < j {
		m := int(uint(i+j) >> 1)
		if p.buf[m].t < t {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < p.hi && p.buf[i].t == t {
		p.buf[i].n += c
		return
	}
	i -= p.lo
	p.room(1)
	i += p.lo
	copy(p.buf[i+1:], p.buf[i:p.hi])
	p.hi++
	p.buf[i] = slotRun{t, c}
}

// room makes buf hold extra entries after the runs, moving the runs to the
// front of buf, or into a buffer twice their size when buf cannot fit them
// with the extra entries.
func (p *SlotPool) room(extra int) {
	if p.hi+extra <= len(p.buf) {
		return
	}
	k, buf := p.hi-p.lo, p.buf
	if k+extra > len(buf) {
		buf = make([]slotRun, 2*(k+extra))
	}
	p.lo, p.hi = 0, copy(buf, p.buf[p.lo:p.hi])
	p.buf = buf
}

// PoolSnapshot is a saved SlotPool state (see Snapshot/Restore).
type PoolSnapshot struct {
	runs  []slotRun
	slots int
}

// Snapshot captures the pool's state, its runs of free times. Every
// operation on the pool is a function of that multiset alone, so replaying
// the same schedule from a restored snapshot is bit-for-bit identical to
// never having diverged — the property the incremental What-if estimator
// depends on.
func (p *SlotPool) Snapshot() PoolSnapshot {
	return PoolSnapshot{runs: slices.Clone(p.buf[p.lo:p.hi]), slots: p.slots}
}

// Restore rewinds the pool to a snapshot. It reuses the pool's backing
// storage when that holds the snapshot's runs, so restoring on a hot path
// allocates nothing.
func (p *SlotPool) Restore(s PoolSnapshot) {
	if len(p.buf) < len(s.runs) {
		p.buf = make([]slotRun, 2*len(s.runs))
	}
	p.lo, p.hi = 0, copy(p.buf, s.runs)
	p.slots = s.slots
}

// ScheduleUniform places count equal-duration tasks, all ready at `ready`,
// on the pool and returns the time the last task ends. The end and the
// slots' free times afterwards are those of calling Schedule count times.
//
// Up to 2 × slots tasks it does what those calls do, bit for bit, a run at
// a time: the first run's slots each take a task, and their ends join the
// pool as one run. Beyond that it finds the water level analytically by
// bisection over the runs, gives each slot the tasks that end by it — a
// slot starting at s with c tasks ends at s + c·dur, which can differ from
// c repeated additions in the last bits — and trims the surplus from the
// slots whose last task ends latest (of two runs ending together, the
// later-free one first), which is what greedy placement leaves. Each
// bisection step costs O(runs), not O(count log slots): the What-if engine
// prices jobs of thousands of uniform tasks through it.
func (p *SlotPool) ScheduleUniform(ready, dur float64, count int) float64 {
	if count <= 0 {
		return ready
	}
	if dur <= 0 {
		// Zero-length tasks occupy no slot time: they all run on the
		// earliest-free slot the moment it is available.
		if f := p.buf[p.lo].t; f > ready {
			return f
		}
		return ready
	}
	if count <= 2*p.slots {
		end := ready
		for count > 0 {
			first := p.buf[p.lo]
			start := ready
			if first.t > start {
				start = first.t
			}
			c := min(first.n, count)
			e := start + dur
			p.take(c)
			p.insert(e, c)
			if e > end {
				end = e
			}
			count -= c
		}
		return end
	}
	// The k entries after the runs hold, per run, the end of its slots'
	// last task and their task count.
	k := p.hi - p.lo
	p.room(k)
	runs, work := p.buf[p.lo:p.hi], p.buf[p.hi:p.hi+k]
	startOf := func(r slotRun) float64 {
		if r.t < ready {
			return ready
		}
		return r.t
	}
	lo, hi := startOf(runs[0]), 0.0
	if s := startOf(runs[k-1]); s > hi {
		hi = s
	}
	// Binary search the water level L: the smallest time by which `count`
	// tasks can have completed under greedy assignment. Each slot's term is
	// int((L-s)/dur), so the sum over runs is the per-slot sum exactly; it
	// stops once it reaches count, all the search asks.
	fits := func(L float64) int {
		total := 0
		for _, r := range runs {
			s := startOf(r)
			if s >= L || total >= count {
				break
			}
			total += r.n * int((L-s)/dur)
		}
		return total
	}
	hiL := hi + float64(count)*dur/float64(p.slots) + 2*dur
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
	// Give each run's slots the tasks that end by the level.
	surplus := -count
	for x, r := range runs {
		work[x] = slotRun{}
		if s := startOf(r); hiL > s {
			c := int((hiL - s) / dur)
			work[x] = slotRun{s + float64(c)*dur, c}
			surplus += r.n * c
		}
	}
	// Trim the surplus a run at a time, latest end first; when fewer
	// slots than the run holds are left to trim, they split off it. A
	// trimmed slot ends one task earlier, or keeps its free time when it is
	// left with none.
	var split slotRun
	for surplus > 0 {
		x := -1
		for y, w := range work {
			if w.n > 0 && (x < 0 || w.t >= work[x].t) {
				x = y
			}
		}
		r, w := &runs[x], &work[x]
		e := r.t
		if w.n > 1 {
			e = startOf(*r) + float64(w.n-1)*dur
		}
		if surplus < r.n {
			split = slotRun{e, surplus}
			r.n -= surplus
			break
		}
		surplus -= r.n
		*w = slotRun{e, w.n - 1}
	}
	end := ready
	for x, w := range work {
		if w.n == 0 {
			continue
		}
		runs[x].t = w.t
		if w.t > end {
			end = w.t
		}
	}
	// The new free times need not keep the runs' order, though they mostly
	// do: insertion-sort and merge the k runs.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && runs[j].t < runs[j-1].t; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	merged := runs[:1]
	for _, r := range runs[1:] {
		if last := &merged[len(merged)-1]; last.t == r.t {
			last.n += r.n
		} else {
			merged = append(merged, r)
		}
	}
	p.hi = p.lo + len(merged)
	if split.n > 0 {
		p.insert(split.t, split.n)
	}
	return end
}
