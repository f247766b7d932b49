package mrsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// replaySchedule drives a pool through a deterministic mixed workload of
// Schedule and ScheduleUniform calls (including counts large enough to take
// ScheduleUniform's analytic water-level path) and returns every value the
// pool produced.
func replaySchedule(p *SlotPool, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	ready := 0.0
	for i := 0; i < 40; i++ {
		switch i % 3 {
		case 0:
			s, e := p.Schedule(ready, 1+rng.Float64()*5)
			out = append(out, s, e)
			ready = e * 0.75
		case 1:
			e := p.ScheduleUniform(ready, 0.5+rng.Float64()*2, rng.Intn(8))
			out = append(out, e)
		default:
			// Large count: exercises the binary-search assignment and its
			// surplus trim.
			e := p.ScheduleUniform(ready, 0.1+rng.Float64(), 40+rng.Intn(100))
			out = append(out, e)
		}
	}
	return out
}

// TestSlotPoolSnapshotRestoreExactReplay is the property the incremental
// What-if estimator depends on: restoring a snapshot and replaying the same
// operations must yield bit-identical results, every time, including through
// ScheduleUniform's analytic path.
func TestSlotPoolSnapshotRestoreExactReplay(t *testing.T) {
	pool := NewSlotPool(12)
	// Put the pool in a non-trivial state first.
	replaySchedule(pool, 1)
	snap := pool.Snapshot()

	want := replaySchedule(pool, 2)
	for round := 0; round < 3; round++ {
		pool.Restore(snap)
		got := replaySchedule(pool, 2)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: result %d = %.17g, want %.17g", round, i, got[i], want[i])
			}
		}
	}
}

// TestSlotPoolScratchIsNotState: ScheduleUniform keeps per-run working
// values in the spare room of the pool's buffer, outside its snapshot. A
// pool whose buffer was last used by a larger pool and a larger count —
// reached by restoring a snapshot of a different size — must replay a
// snapshot bit for bit like a pool that never ran. One slot of the replayed
// snapshot stays busy past every water level, so the replay has runs that
// take no task, whose working values a stale count would otherwise survive
// in.
func TestSlotPoolScratchIsNotState(t *testing.T) {
	small := NewSlotPool(5)
	replaySchedule(small, 3)
	small.Schedule(0, 1e6)
	snapSmall := small.Snapshot()
	big := NewSlotPool(40)
	replaySchedule(big, 4)
	snapBig := big.Snapshot()

	fresh := NewSlotPool(5)
	fresh.Restore(snapSmall)
	want := replaySchedule(fresh, 5)

	pool := NewSlotPool(5)
	for round := 0; round < 3; round++ {
		pool.Restore(snapBig)
		pool.ScheduleUniform(1, 0.25, 100000)
		pool.Restore(snapSmall)
		got := replaySchedule(pool, 5)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: result %d = %.17g, want %.17g", round, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleUniformAllocsZero: on a warmed pool neither Schedule nor
// either ScheduleUniform path — per task (count ≤ 2 × slots) or water level
// (count > 2 × slots) — allocates; the What-if engine takes them for every
// job it prices. Nor does the simulator's shape, Schedule with a different
// duration every task, once the pool holds one run per slot.
func TestScheduleUniformAllocsZero(t *testing.T) {
	pool := NewSlotPool(12)
	snap := pool.Snapshot()
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Schedule", func() { pool.Schedule(0, 1.5); pool.Schedule(1, 2.5) }},
		{"tasks", func() { pool.ScheduleUniform(0, 1.5, 20) }},
		{"water", func() { pool.ScheduleUniform(0, 1.5, 100) }},
	} {
		run := func() {
			pool.Restore(snap)
			pool.Schedule(0, 0.5) // two runs, so the calls split and merge them
			c.run()
		}
		run()
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s on a warmed pool allocates %.1f times, want 0", c.name, allocs)
		}
	}

	distinct := NewSlotPool(150)
	durs := distinctDurations(4096)
	i := 0
	next := func() {
		distinct.Schedule(0, durs[i%len(durs)])
		i++
	}
	for range 2 * len(durs) {
		next()
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Errorf("Schedule with distinct durations allocates %.1f times, want 0", allocs)
	}
}

// distinctDurations returns n seeded task lengths, no two equal.
func distinctDurations(n int) []float64 {
	rng := rand.New(rand.NewSource(150))
	seen := make(map[float64]bool, n)
	durs := make([]float64, 0, n)
	for len(durs) < n {
		if d := 1 + 99*rng.Float64(); !seen[d] {
			seen[d] = true
			durs = append(durs, d)
		}
	}
	return durs
}

// freeTimes returns the pool's slot free times in ascending order, read
// through the API on a copy: a task ready at -Inf starts when its slot
// frees, and one of infinite length takes that slot out of later reads.
func freeTimes(p *SlotPool) []float64 {
	q := NewSlotPool(1)
	q.Restore(p.Snapshot())
	var free []float64
	for q.EarliestFree() < math.Inf(1) {
		s, _ := q.Schedule(math.Inf(-1), math.Inf(1))
		free = append(free, s)
	}
	return free
}

// TestScheduleUniformEndMatchesGreedy pins ScheduleUniform's contract on
// both paths: the end it returns and the slots' free times afterwards are
// those of count greedy Schedule calls on the same pool. Durations and free
// times are dyadic, so both sides compute exactly. The first case is one
// where the water level's slots tie: greedy leaves the slot that started
// first with the most tasks, not the slot that comes first in any order.
func TestScheduleUniformEndMatchesGreedy(t *testing.T) {
	check := func(name string, pool *SlotPool, ready, dur float64, count int) {
		t.Helper()
		snap := pool.Snapshot()
		end := pool.ScheduleUniform(ready, dur, count)
		free := freeTimes(pool)
		pool.Restore(snap)
		greedy := ready
		for i := 0; i < count; i++ {
			if _, e := pool.Schedule(ready, dur); e > greedy {
				greedy = e
			}
		}
		if want := freeTimes(pool); end != greedy || !slices.Equal(free, want) {
			t.Fatalf("%s: ScheduleUniform(%v, %v, %d) = %v leaving %v, greedy %v leaving %v",
				name, ready, dur, count, end, free, greedy, want)
		}
	}

	pool := NewSlotPool(3)
	pool.Schedule(0, 0.5)
	pool.Schedule(0, 0.5)
	check("3 slots, two busy until 0.5", pool, 0, 1, 8)
	if got, want := freeTimes(pool), []float64{2.5, 3, 3.5}; !slices.Equal(got, want) {
		t.Fatalf("3 slots, two busy until 0.5: free times %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(20)
		pool := NewSlotPool(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			pool.Schedule(float64(rng.Intn(40))/2, float64(1+rng.Intn(12))/2)
		}
		ready := float64(rng.Intn(30)) / 2
		dur := float64(1+rng.Intn(12)) / 2
		count := 1 + rng.Intn(12*n)
		check(fmt.Sprintf("trial %d, %d slots", trial, n), pool, ready, dur, count)
	}
}

// TestSlotPoolSnapshotIsolated: mutating the pool after Snapshot must not
// corrupt the snapshot (and Restore must not alias it either).
func TestSlotPoolSnapshotIsolated(t *testing.T) {
	pool := NewSlotPool(4)
	pool.Schedule(0, 5)
	snap := pool.Snapshot()
	free := pool.EarliestFree()
	pool.ScheduleUniform(0, 3, 50)
	pool.Restore(snap)
	if got := pool.EarliestFree(); got != free {
		t.Fatalf("restored earliest-free = %v, want %v", got, free)
	}
	// Mutating after restore must not write through into the snapshot.
	pool.Schedule(0, 100)
	pool.Restore(snap)
	if got := pool.EarliestFree(); got != free {
		t.Fatalf("snapshot corrupted by post-restore mutation: %v, want %v", got, free)
	}
}

// TestSlotPoolRestoreResizes: restoring a snapshot of a different-sized pool
// takes the snapshot's slots and free times.
func TestSlotPoolRestoreResizes(t *testing.T) {
	a := NewSlotPool(8)
	a.Schedule(0, 2)
	snap := a.Snapshot()
	b := NewSlotPool(3)
	b.Restore(snap)
	if b.EarliestFree() != a.EarliestFree() {
		t.Fatalf("resized restore: earliest-free %v, want %v", b.EarliestFree(), a.EarliestFree())
	}
	if got, want := freeTimes(b), freeTimes(a); !slices.Equal(got, want) {
		t.Fatalf("resized restore: free times %v, want %v", got, want)
	}
}
