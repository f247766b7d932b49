package mrsim

import (
	"math"
	"math/rand"
	"testing"
)

// --- zero-model identity (unit level) -----------------------------------

// TestZeroModelMatchesSlotPool drives a zero-rate FaultModel and a plain
// SlotPool through the same placement sequence: every task's end time must
// agree bit for bit. This is the unit-level core of the zero-perturbation
// metamorphic suite (the engine- and optimizer-level halves live in the
// root package).
func TestZeroModelMatchesSlotPool(t *testing.T) {
	fm := &FaultModel{Seed: 11, Speculative: true}
	if err := fm.Validate(); err != nil {
		t.Fatal(err)
	}
	if fm.Perturbs() {
		t.Fatal("zero-rate model claims to perturb")
	}
	for _, slots := range []int{1, 2, 7, 32} {
		plain := NewSlotPool(slots)
		speeds := make([]float64, slots)
		for i := range speeds {
			speeds[i] = 1
		}
		faulty := NewFaultyPool(speeds)
		r := rand.New(rand.NewSource(int64(slots)))
		ready := 0.0
		for i := 0; i < 500; i++ {
			if r.Intn(4) == 0 {
				ready += r.Float64() * 10
			}
			dur := 0.1 + r.Float64()*20
			_, wantEnd := plain.Schedule(ready, dur)
			fate := fm.ScheduleTask(faulty, fm.TaskKey("J", false, i), ready, dur)
			if math.Float64bits(wantEnd) != math.Float64bits(fate.End) {
				t.Fatalf("slots=%d task %d: SlotPool end %.17g, zero-model end %.17g",
					slots, i, wantEnd, fate.End)
			}
			if fate.Attempts != 1 || fate.Failures != 0 || fate.Speculated || fate.FailedOut {
				t.Fatalf("slots=%d task %d: zero-rate fate has fault activity: %+v", slots, i, fate)
			}
		}
	}
}

// --- determinism and replay ---------------------------------------------

// TestScheduleTaskDeterministicReplay rewinds a FaultyPool with
// Snapshot/Restore and replays the same placement sequence: every fate must
// be identical, regardless of what ran in between — the contract the
// Monte-Carlo robustness evaluator is built on.
func TestScheduleTaskDeterministicReplay(t *testing.T) {
	fm := StandardFaultProfile(5)
	cl := DefaultCluster()
	pool := NewFaultyPool(fm.SlotSpeeds(cl, false))
	snap := pool.Snapshot()
	run := func() []TaskFate {
		pool.Restore(snap)
		fates := make([]TaskFate, 0, 200)
		for i := 0; i < 200; i++ {
			fates = append(fates, fm.ScheduleTask(pool, fm.TaskKey("J1", i%2 == 0, i), float64(i)/7, 3+float64(i%5)))
		}
		return fates
	}
	first := run()
	// Disturb the pool between replays; Restore must erase all of it.
	for i := 0; i < 50; i++ {
		fm.ScheduleTask(pool, fm.TaskKey("noise", false, i), 0, 100)
	}
	again := run()
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("task %d fate diverged across replay:\nfirst %+v\nagain %+v", i, first[i], again[i])
		}
	}
}

// TestPerturbSeedsDistinct: the derived Monte-Carlo seeds must differ from
// each other and from the base seed (a collision would silently halve the
// sample diversity).
func TestPerturbSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{42: true}
	for i := 0; i < 1000; i++ {
		s := PerturbSeed(42, i)
		if seen[s] {
			t.Fatalf("perturbation seed collision at i=%d: %d", i, s)
		}
		seen[s] = true
	}
}

// --- fault schedule invariants (fuzz) -----------------------------------

// FuzzFaultSchedule drives ScheduleTask with arbitrary model parameters and
// placement sequences and checks the invariants no perturbation may break:
// attempts bounded by the retry budget, ends after starts, no task both
// winning speculation and failing out, per-slot clocks monotone, and the
// whole schedule a pure function of its inputs (bit-identical on replay).
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), 0.02, 3, 0.1, 0.5, true, uint8(20))
	f.Add(int64(7), 0.5, 0, 0.0, 0.0, false, uint8(5))
	f.Add(int64(42), 0.0, 2, 0.9, 1.5, true, uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, failProb float64, retries int,
		stragProb, sigma float64, spec bool, n uint8) {
		fm := &FaultModel{
			Seed:            seed,
			TaskFailureProb: failProb,
			MaxRetries:      retries,
			StragglerProb:   stragProb,
			StragglerSigma:  sigma,
			Speculative:     spec,
		}
		if fm.Validate() != nil {
			t.Skip("invalid model")
		}
		speeds := []float64{1, 1, 0.7, 1.3}
		run := func() ([]TaskFate, []float64) {
			pool := NewFaultyPool(speeds)
			fates := make([]TaskFate, 0, int(n))
			for i := 0; i < int(n); i++ {
				ready := float64(i%7) * 1.5
				dur := 1 + float64(i%4)
				fates = append(fates, fm.ScheduleTask(pool, fm.TaskKey("F", i%3 == 0, i), ready, dur))
			}
			frees := make([]float64, len(speeds))
			for range speeds {
				slot, start, _ := pool.Acquire(0)
				frees[slot] = start
			}
			return fates, frees
		}
		fates, frees := run()
		for i, fate := range fates {
			ready := float64(i%7) * 1.5
			if fate.Start < ready {
				t.Errorf("task %d started at %g before ready %g", i, fate.Start, ready)
			}
			if fate.End < fate.Start {
				t.Errorf("task %d ended at %g before start %g", i, fate.End, fate.Start)
			}
			if fate.Attempts > fm.MaxRetries+1 {
				t.Errorf("task %d launched %d attempts, retry bound %d", i, fate.Attempts, fm.MaxRetries)
			}
			if fate.Failures > fate.Attempts {
				t.Errorf("task %d: %d failures out of %d attempts", i, fate.Failures, fate.Attempts)
			}
			if fate.FailedOut {
				if fate.Failures != fm.MaxRetries+1 {
					t.Errorf("task %d failed out after %d failures, want %d", i, fate.Failures, fm.MaxRetries+1)
				}
				if fate.Speculated || fate.SpecWon {
					t.Errorf("task %d both failed out and speculated: %+v", i, fate)
				}
			}
			if fate.SpecWon && !fate.Speculated {
				t.Errorf("task %d won speculation without speculating", i)
			}
		}
		for slot, free := range frees {
			if free < 0 || math.IsNaN(free) || math.IsInf(free, 0) {
				t.Errorf("slot %d clock not finite/monotone: %g", slot, free)
			}
		}
		fates2, frees2 := run()
		for i := range fates {
			if fates[i] != fates2[i] {
				t.Errorf("task %d fate not deterministic: %+v vs %+v", i, fates[i], fates2[i])
			}
		}
		for i := range frees {
			if math.Float64bits(frees[i]) != math.Float64bits(frees2[i]) {
				t.Errorf("slot %d clock not deterministic: %g vs %g", i, frees[i], frees2[i])
			}
		}
	})
}

// --- heterogeneous slot expansion ---------------------------------------

func TestSlotSpeedsExpansion(t *testing.T) {
	cl := DefaultCluster()
	// No classes: uniform pool at the cluster's own slot counts.
	uniform := cl.SlotSpeeds(nil, false)
	if len(uniform) != cl.TotalMapSlots() {
		t.Fatalf("uniform map slots = %d, want %d", len(uniform), cl.TotalMapSlots())
	}
	for _, s := range uniform {
		if s != 1 {
			t.Fatalf("uniform speed %g, want 1", s)
		}
	}
	// Classes replace the population: counts and speeds per class.
	classes := []NodeClass{
		{Name: "fast", Nodes: 3, Speed: 1.0, MapSlotsPerNode: 2},
		{Name: "slow", Nodes: 2, Speed: 0.5}, // cluster-default slots
	}
	got := cl.SlotSpeeds(classes, false)
	want := 3*2 + 2*cl.MapSlotsPerNode
	if len(got) != want {
		t.Fatalf("heterogeneous map slots = %d, want %d", len(got), want)
	}
	fast, slow := 0, 0
	for _, s := range got {
		switch s {
		case 1.0:
			fast++
		case 0.5:
			slow++
		default:
			t.Fatalf("unexpected speed %g", s)
		}
	}
	if fast != 6 || slow != 2*cl.MapSlotsPerNode {
		t.Fatalf("speed split %d fast / %d slow, want 6 / %d", fast, slow, 2*cl.MapSlotsPerNode)
	}
}

// TestFaultProfilesValidate: every named profile must pass its own
// validation and actually perturb.
func TestFaultProfilesValidate(t *testing.T) {
	for _, name := range []string{"standard", "failures", "stragglers"} {
		fm, err := FaultProfile(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fm.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
		if !fm.Perturbs() {
			t.Errorf("profile %s does not perturb", name)
		}
	}
	if _, err := FaultProfile("nope", 1); err == nil {
		t.Error("unknown profile accepted")
	}
}
