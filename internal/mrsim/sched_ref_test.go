package mrsim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSlotPool is SlotPool as it was before the typed heap and the grouped
// water-level search — container/heap placements and a bisection that
// rescans every slot — except for the water-level path's surplus trim,
// which takes tasks from the slots whose last task ends latest rather than
// in slice order. It is the reference SlotPool must match bit for bit in
// its returned times and its multiset of free times.
type refSlotPool struct {
	free   refTimeHeap
	starts []float64
	counts []int
}

func newRefSlotPool(n int) *refSlotPool {
	if n < 1 {
		n = 1
	}
	p := &refSlotPool{free: make(refTimeHeap, n)}
	heap.Init(&p.free)
	return p
}

func (p *refSlotPool) Schedule(ready, dur float64) (start, end float64) {
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

func (p *refSlotPool) ScheduleUniform(ready, dur float64, count int) float64 {
	if count <= 0 {
		return ready
	}
	n := len(p.free)
	if dur <= 0 {
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
	total := 0
	for i, s := range starts {
		counts[i] = 0
		if hiL > s {
			counts[i] = int((hiL - s) / dur)
			total += counts[i]
		}
	}
	// Trim one slot at a time: the one whose last task ends latest, and of
	// two ending together the one that was free later.
	for total > count {
		best := -1
		for i, c := range counts {
			if c == 0 {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			e, eb := starts[i]+float64(c)*dur, starts[best]+float64(counts[best])*dur
			if e > eb || e == eb && p.free[i] > p.free[best] {
				best = i
			}
		}
		counts[best]--
		total--
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

type refTimeHeap []float64

func (h refTimeHeap) Len() int            { return len(h) }
func (h refTimeHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refTimeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refTimeHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *refTimeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runsValid reports whether the pool's runs are ascending, distinct and
// non-empty, and hold all its slots.
func (p *SlotPool) runsValid() bool {
	slots := 0
	for i, r := range p.buf[p.lo:p.hi] {
		if r.n <= 0 || i > 0 && !(p.buf[p.lo+i-1].t < r.t) {
			return false
		}
		slots += r.n
	}
	return slots == p.slots
}

// TestSlotPoolMatchesReference drives SlotPool and the reference pool
// through the same seeded sequences of Schedule and ScheduleUniform calls
// and requires, after every call, bitwise-equal returned times and
// bitwise-equal sorted free times, held in valid runs. A third of the trials draw times and
// durations on a 0.5 grid, so that free times repeat, runs hold many slots
// and ends tie at the water level; a third on a 0.1 grid, where s + c·dur
// rounds, so that ends tie while the ends one task earlier differ and the
// trim's tie-break shows. Counts cover 0, the per-task path (≤ 2 × slots)
// and the water-level path, and durations include 0.
func TestSlotPoolMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 12, 100, 150}
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 3000; trial++ {
		n := sizes[trial%len(sizes)]
		draw := func(max float64) float64 {
			switch trial % 3 {
			case 0:
				return float64(rng.Intn(int(2*max)+1)) / 2
			case 1:
				return float64(rng.Intn(int(10*max)+1)) / 10
			}
			return rng.Float64() * max
		}
		got, want := NewSlotPool(n), newRefSlotPool(n)
		ready := 0.0
		for op := 0; op < 30; op++ {
			ready += draw(4) - 1 // occasionally backwards, sometimes negative
			if rng.Intn(8) == 0 {
				// Past every slot: all effective starts collapse to ready.
				for _, f := range want.free {
					ready = math.Max(ready, f)
				}
			}
			dur := draw(6)
			if rng.Intn(8) == 0 {
				dur = 0
			}
			var g, w [2]float64
			var call string
			switch r := rng.Intn(6); {
			case r < 2:
				call = "Schedule"
				g[0], g[1] = got.Schedule(ready, dur)
				w[0], w[1] = want.Schedule(ready, dur)
			default:
				var count int
				switch r {
				case 2:
					count = rng.Intn(2)
				case 3:
					count = 1 + rng.Intn(2*n)
				default:
					count = 2*n + 1 + rng.Intn(20*n)
				}
				call = "ScheduleUniform"
				g[0] = got.ScheduleUniform(ready, dur, count)
				w[0] = want.ScheduleUniform(ready, dur, count)
			}
			for k := range g {
				if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
					t.Fatalf("trial %d op %d: %s(%v, %v) returned %.17g, reference %.17g", trial, op, call, ready, dur, g[k], w[k])
				}
			}
			if !got.runsValid() {
				t.Fatalf("trial %d op %d: after %s runs %v are not ascending, distinct and non-empty over %d slots",
					trial, op, call, got.buf[got.lo:got.hi], n)
			}
			gotFree, wantFree := freeTimes(got), slices.Clone(want.free)
			slices.Sort(wantFree)
			if len(gotFree) != len(wantFree) {
				t.Fatalf("trial %d op %d: after %s %d slots, reference %d", trial, op, call, len(gotFree), len(wantFree))
			}
			for i := range wantFree {
				if math.Float64bits(gotFree[i]) != math.Float64bits(wantFree[i]) {
					t.Fatalf("trial %d op %d: after %s free time %d is %.17g, reference %.17g\ngot  %v\nwant %v",
						trial, op, call, i, gotFree[i], wantFree[i], gotFree, wantFree)
				}
			}
		}
	}
}
