package mrsim

import (
	"math/rand"
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
			// Large count: exercises the binary-search assignment whose
			// per-slot trimming is sensitive to the heap's slice layout.
			e := p.ScheduleUniform(ready, 0.1+rng.Float64(), 40+rng.Intn(100))
			out = append(out, e)
		}
	}
	return out
}

// TestSlotPoolSnapshotRestoreExactReplay is the property the incremental
// What-if estimator depends on: restoring a snapshot and replaying the same
// operations must yield bit-identical results, every time, including through
// ScheduleUniform's layout-sensitive analytic path.
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

// TestSlotPoolScratchIsNotState: ScheduleUniform's scratch lives on the pool
// but outside its snapshot. A pool whose scratch was last used on a larger
// pool and a larger count — reached by restoring a snapshot of a different
// size — must replay a snapshot bit for bit like a pool that never ran. One
// slot of the replayed snapshot stays busy past every water level, so the
// replay has slots that take no task, whose scratch entries a stale count
// would otherwise survive in.
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

// TestScheduleUniformAllocsZero: on a warmed pool the water-level path
// (count > 2 × slots) reuses the pool's scratch and allocates nothing — the
// What-if engine takes it for every job with more tasks than twice the
// cluster's slots.
func TestScheduleUniformAllocsZero(t *testing.T) {
	pool := NewSlotPool(12)
	snap := pool.Snapshot()
	run := func() {
		pool.Restore(snap)
		if end := pool.ScheduleUniform(0, 1.5, 100); end <= 0 {
			t.Fatalf("end = %v", end)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("ScheduleUniform on a warmed pool allocates %.1f times, want 0", allocs)
	}
}

// TestScheduleUniformEndMatchesGreedy pins the half of ScheduleUniform's
// contract that holds on the water-level path (count > 2 × slots): the end
// it returns is the end of count greedy Schedule calls on the same pool.
// Durations and free times are dyadic, so both sides compute exactly. The
// free times afterwards are not compared: the surplus trim in slice order
// makes them differ from the greedy ones, as the doc comment says.
func TestScheduleUniformEndMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(20)
		pool := NewSlotPool(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			pool.Schedule(float64(rng.Intn(40))/2, float64(1+rng.Intn(12))/2)
		}
		snap := pool.Snapshot()
		ready := float64(rng.Intn(30)) / 2
		dur := float64(1+rng.Intn(12)) / 2
		count := 2*n + 1 + rng.Intn(10*n)

		end := pool.ScheduleUniform(ready, dur, count)
		pool.Restore(snap)
		greedy := ready
		for i := 0; i < count; i++ {
			if _, e := pool.Schedule(ready, dur); e > greedy {
				greedy = e
			}
		}
		if end != greedy {
			t.Fatalf("trial %d: %d slots, ScheduleUniform(%v, %v, %d) = %v, greedy end %v", trial, n, ready, dur, count, end, greedy)
		}
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

// TestSlotPoolRestoreResizes: restoring onto a pool whose heap length
// diverged (defensive path) reallocates correctly.
func TestSlotPoolRestoreResizes(t *testing.T) {
	a := NewSlotPool(8)
	a.Schedule(0, 2)
	snap := a.Snapshot()
	b := NewSlotPool(3)
	b.Restore(snap)
	if b.EarliestFree() != a.EarliestFree() {
		t.Fatalf("resized restore: earliest-free %v, want %v", b.EarliestFree(), a.EarliestFree())
	}
}
