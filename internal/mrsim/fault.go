package mrsim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math"
)

// FaultModel perturbs task scheduling with the failure modes production
// clusters actually exhibit: per-task failures with bounded retries,
// lognormal straggler slowdowns, heterogeneous node classes, and
// speculative re-execution that cancels the losing attempt. Every draw is
// a pure function of (Seed, job, task, attempt), so a given (plan, model)
// pair always simulates identically — across runs, across goroutines, and
// across replay orders.
//
// The model only moves simulated time. The engine's data path (chains,
// combiners, partitioning, DFS materialization) never sees it, so retried
// and speculated tasks cannot duplicate, drop, or reorder output tuples.
// A model with all rates zero and no node classes reproduces the
// nil-model timings bit for bit.
type FaultModel struct {
	// Seed roots every random draw. Two models differing only in Seed
	// perturb the same plan differently; equal seeds perturb identically.
	Seed int64
	// TaskFailureProb is the per-attempt probability that a task attempt
	// fails partway through, surrendering its slot and re-queuing.
	TaskFailureProb float64
	// MaxRetries bounds re-executions after the first attempt. A task
	// whose attempts all fail (MaxRetries+1 of them) fails the job.
	MaxRetries int
	// StragglerProb is the per-attempt probability the attempt straggles:
	// its duration is multiplied by exp(StragglerSigma·|z|), z ~ N(0,1) —
	// the right half of a lognormal, so stragglers only ever slow down.
	StragglerProb float64
	// StragglerSigma is the lognormal shape of straggler slowdowns
	// (0.5 means a median straggler runs ~1.4x slow, p95 ~2.7x).
	StragglerSigma float64
	// Speculative enables backup attempts: when an attempt's drawn
	// duration exceeds SpeculativeSlowdown times the nominal duration, a
	// backup launches once the nominal deadline passes, and whichever
	// attempt finishes first commits while the loser is canceled.
	Speculative bool
	// SpeculativeSlowdown is the overrun factor that triggers a backup
	// (default 1.5 when zero).
	SpeculativeSlowdown float64
	// NodeClasses, when non-empty, replaces the cluster's uniform node
	// population with heterogeneous classes (slot counts and speeds).
	NodeClasses []NodeClass
}

// NodeClass describes one homogeneous group of nodes in a mixed cluster.
type NodeClass struct {
	// Name labels the class in reports ("fast", "old-gen", ...).
	Name string
	// Nodes is the class population.
	Nodes int
	// Speed divides task durations on this class's slots (1 = baseline,
	// 0.5 = half speed).
	Speed float64
	// MapSlotsPerNode/ReduceSlotsPerNode override the cluster's per-node
	// slot counts for this class (0 = cluster default).
	MapSlotsPerNode, ReduceSlotsPerNode int
}

// Validate checks the model's parameters.
func (fm *FaultModel) Validate() error {
	switch {
	case fm.TaskFailureProb < 0 || fm.TaskFailureProb >= 1:
		return fmt.Errorf("mrsim: fault model: TaskFailureProb %v outside [0,1)", fm.TaskFailureProb)
	case fm.StragglerProb < 0 || fm.StragglerProb > 1:
		return fmt.Errorf("mrsim: fault model: StragglerProb %v outside [0,1]", fm.StragglerProb)
	case fm.MaxRetries < 0:
		return fmt.Errorf("mrsim: fault model: negative MaxRetries %d", fm.MaxRetries)
	case fm.StragglerSigma < 0:
		return fmt.Errorf("mrsim: fault model: negative StragglerSigma %v", fm.StragglerSigma)
	case fm.SpeculativeSlowdown < 0 || (fm.SpeculativeSlowdown > 0 && fm.SpeculativeSlowdown < 1):
		return fmt.Errorf("mrsim: fault model: SpeculativeSlowdown %v must be 0 (default) or >= 1", fm.SpeculativeSlowdown)
	}
	for _, nc := range fm.NodeClasses {
		if nc.Nodes <= 0 {
			return fmt.Errorf("mrsim: fault model: node class %q has %d nodes", nc.Name, nc.Nodes)
		}
		if nc.Speed <= 0 {
			return fmt.Errorf("mrsim: fault model: node class %q has speed %v", nc.Name, nc.Speed)
		}
		if nc.MapSlotsPerNode < 0 || nc.ReduceSlotsPerNode < 0 {
			return fmt.Errorf("mrsim: fault model: node class %q has negative slot counts", nc.Name)
		}
	}
	return nil
}

// Perturbs reports whether the model can move any timing at all. A
// non-perturbing model (all rates zero, no node classes) is the
// metamorphic identity: attaching it changes nothing.
func (fm *FaultModel) Perturbs() bool {
	return fm != nil && (fm.TaskFailureProb > 0 || fm.StragglerProb > 0 || len(fm.NodeClasses) > 0)
}

// Reseed returns a copy of the model rooted at a different seed —
// Monte-Carlo robustness sampling draws one copy per perturbation seed.
func (fm *FaultModel) Reseed(seed int64) *FaultModel {
	c := *fm
	c.Seed = seed
	return &c
}

func (fm *FaultModel) specThreshold() float64 {
	if fm.SpeculativeSlowdown > 0 {
		return fm.SpeculativeSlowdown
	}
	return 1.5
}

// SlotSpeeds expands the model into per-slot speed factors for the map
// (reduce=false) or reduce (reduce=true) side of cluster c (see
// Cluster.SlotSpeeds).
func (fm *FaultModel) SlotSpeeds(c *Cluster, reduce bool) []float64 {
	return c.SlotSpeeds(fm.NodeClasses, reduce)
}

// --- deterministic draws ------------------------------------------------
//
// Draws are counter-based: mix64 (splitmix64's finalizer) over a per-task
// key and a per-purpose salt. No generator state exists, so evaluation
// order, goroutine interleaving, and replay cannot change any draw.

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PerturbSeed derives the i-th Monte-Carlo perturbation seed from a base
// seed — a fixed, well-mixed sequence so sample sets are reproducible.
func PerturbSeed(seed int64, i int) int64 {
	return int64(mix64(mix64(uint64(seed)) ^ uint64(i+1)))
}

// TaskKey identifies one simulated task for fault draws.
func (fm *FaultModel) TaskKey(jobID string, reduce bool, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	k := h.Sum64()
	if reduce {
		k = mix64(k ^ 0x52454455434552) // "REDUCER" discriminator
	}
	return mix64(mix64(uint64(fm.Seed)) ^ mix64(k) ^ mix64(uint64(index)))
}

// u01 is a uniform draw in [0,1).
func u01(key, salt uint64) float64 {
	return float64(mix64(key^mix64(salt))>>11) / (1 << 53)
}

// absNormal is |z| for z ~ N(0,1), via Box-Muller on two salted draws.
func absNormal(key, salt uint64) float64 {
	u1 := u01(key, salt)
	u2 := u01(key, salt+1)
	return math.Abs(math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2))
}

// Per-attempt salt layout (stride attemptSaltStride):
//
//	+0 straggler gate   +1,+2 straggler magnitude
//	+3 failure gate     +4    failure progress fraction
//	+5 backup straggler gate   +6,+7 backup magnitude
const attemptSaltStride = 8

// maxStragglerFactor caps one attempt's straggler slowdown. Real stragglers
// are orders of magnitude slow, not infinitely slow; without the cap an
// extreme StragglerSigma overflows exp to +Inf and poisons the simulated
// clock (found by FuzzFaultSchedule).
const maxStragglerFactor = 1000.0

// attemptDur draws one attempt's duration on a slot of the given speed.
func (fm *FaultModel) attemptDur(key, salt uint64, dur, speed float64) float64 {
	d := dur / speed
	if fm.StragglerProb > 0 && u01(key, salt) < fm.StragglerProb {
		f := math.Exp(fm.StragglerSigma * absNormal(key, salt+1))
		if f > maxStragglerFactor {
			f = maxStragglerFactor
		}
		d *= f
	}
	return d
}

// TaskFate is how one simulated task ultimately completed under faults.
type TaskFate struct {
	// Start is when the first attempt started; End when the winning
	// attempt committed (or the last attempt failed, for FailedOut).
	Start, End float64
	// Attempts counts attempts launched (1 when nothing went wrong;
	// speculative backups are not attempts).
	Attempts int
	// Failures counts failed attempts.
	Failures int
	// Speculated marks that a backup launched; SpecWon that it committed.
	Speculated, SpecWon bool
	// FailedOut marks that every allowed attempt failed.
	FailedOut bool
}

// ScheduleTask places one task (ready at `ready`, nominal duration `dur`)
// on the pool under this model: failed attempts hold their slot until the
// failure instant and re-queue, stragglers run long, and an overrunning
// final attempt may race a speculative backup — the first to finish
// commits, the loser's slot is released at the commit instant.
func (fm *FaultModel) ScheduleTask(p *FaultyPool, key uint64, ready, dur float64) TaskFate {
	fate := TaskFate{Start: math.Inf(1)}
	for attempt := 0; ; attempt++ {
		slot, start, _ := p.Acquire(ready)
		if start < fate.Start {
			fate.Start = start
		}
		fate.Attempts++
		salt := uint64(attempt) * attemptSaltStride
		d := fm.attemptDur(key, salt, dur, p.Speed(slot))
		if fm.TaskFailureProb > 0 && u01(key, salt+3) < fm.TaskFailureProb {
			fate.Failures++
			failAt := start + d*u01(key, salt+4)
			p.Release(slot, failAt)
			if fate.Failures > fm.MaxRetries {
				fate.End = failAt
				fate.FailedOut = true
				return fate
			}
			ready = failAt
			continue
		}
		end := start + d
		if fm.Speculative && d > fm.specThreshold()*dur {
			// The attempt will overrun; a backup becomes schedulable at the
			// nominal deadline and the first finisher cancels the other.
			fate.Speculated = true
			bslot, bstart, bfree := p.Acquire(start + dur)
			bd := fm.attemptDur(key, salt+5, dur, p.Speed(bslot))
			if bend := bstart + bd; bend < end {
				fate.SpecWon = true
				p.Release(slot, bend)
				p.Release(bslot, bend)
				fate.End = bend
				return fate
			}
			if bstart >= end {
				// The primary finished before the backup could start: the
				// backup is canceled unlaunched and its slot never blocked.
				p.Release(bslot, bfree)
			} else {
				p.Release(bslot, end)
			}
		}
		p.Release(slot, end)
		fate.End = end
		return fate
	}
}

// --- FaultyPool ---------------------------------------------------------

// FaultyPool is the heterogeneous sibling of SlotPool: a fixed set of
// slots, each with its own speed factor, assigned earliest-free with
// slot-index tie-breaking (fully deterministic). Unlike SlotPool it
// supports holding a slot across a simulated interval (Acquire/Release),
// which failure retries and speculative races need.
type FaultyPool struct {
	h     faultSlotHeap
	speed []float64
}

// NewFaultyPool builds a pool with one slot per speed factor, all free at
// time zero.
func NewFaultyPool(speeds []float64) *FaultyPool {
	p := &FaultyPool{h: make(faultSlotHeap, len(speeds)), speed: speeds}
	for i := range p.h {
		p.h[i] = faultSlot{idx: i}
	}
	heap.Init(&p.h)
	return p
}

// Speed reports a slot's speed factor.
func (p *FaultyPool) Speed(slot int) float64 { return p.speed[slot] }

// Acquire takes the earliest-free slot (lowest index on ties) for a task
// ready at `ready`, returning the slot, its start time, and the free time
// it had (so an unused acquisition can be released unchanged).
func (p *FaultyPool) Acquire(ready float64) (slot int, start, prevFree float64) {
	s := heap.Pop(&p.h).(faultSlot)
	start = ready
	if s.free > start {
		start = s.free
	}
	return s.idx, start, s.free
}

// Release returns a slot to the pool, free from `free` on.
func (p *FaultyPool) Release(slot int, free float64) {
	heap.Push(&p.h, faultSlot{free: free, idx: slot})
}

// EarliestFree reports the earliest time any pooled slot is available.
func (p *FaultyPool) EarliestFree() float64 { return p.h[0].free }

// FaultyPoolSnapshot is a saved FaultyPool state (see Snapshot/Restore).
type FaultyPoolSnapshot struct {
	h faultSlotHeap
}

// Snapshot captures the pool's exact heap layout. Unlike SlotPool, whose
// slots are interchangeable, a FaultyPool's slots differ in speed, so which
// slot breaks a tie decides the schedule; the layout preserves that, and a
// restored replay is bit-identical. All slots must be released (no task
// mid-flight).
func (p *FaultyPool) Snapshot() FaultyPoolSnapshot {
	s := FaultyPoolSnapshot{h: make(faultSlotHeap, len(p.h))}
	copy(s.h, p.h)
	return s
}

// Restore rewinds the pool to a snapshot from a same-sized pool, reusing
// the backing storage.
func (p *FaultyPool) Restore(s FaultyPoolSnapshot) {
	if len(p.h) != len(s.h) {
		p.h = make(faultSlotHeap, len(s.h))
	}
	copy(p.h, s.h)
}

type faultSlot struct {
	free float64
	idx  int
}

type faultSlotHeap []faultSlot

func (h faultSlotHeap) Len() int { return len(h) }
func (h faultSlotHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].idx < h[j].idx
}
func (h faultSlotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *faultSlotHeap) Push(x interface{}) { *h = append(*h, x.(faultSlot)) }
func (h *faultSlotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// --- standard profiles --------------------------------------------------

// StandardFaultProfile is the benchmark fault profile: moderate failures
// and stragglers with speculation on, on a 60/40 fast/slow cluster. BENCH
// robustness rows and the CLIs' "standard" profile use it.
func StandardFaultProfile(seed int64) *FaultModel {
	return &FaultModel{
		Seed:            seed,
		TaskFailureProb: 0.02,
		MaxRetries:      3,
		StragglerProb:   0.08,
		StragglerSigma:  0.5,
		Speculative:     true,
		NodeClasses: []NodeClass{
			{Name: "fast", Nodes: 30, Speed: 1.0},
			{Name: "slow", Nodes: 20, Speed: 0.7},
		},
	}
}

// FailureFaultProfile stresses retries: frequent failures, no stragglers.
func FailureFaultProfile(seed int64) *FaultModel {
	return &FaultModel{Seed: seed, TaskFailureProb: 0.10, MaxRetries: 5}
}

// StragglerFaultProfile stresses speculation: heavy-tailed slowdowns with
// backups enabled, homogeneous hardware.
func StragglerFaultProfile(seed int64) *FaultModel {
	return &FaultModel{
		Seed:           seed,
		StragglerProb:  0.25,
		StragglerSigma: 0.8,
		Speculative:    true,
	}
}

// FaultProfile returns a named profile ("standard", "failures",
// "stragglers") or an error listing the valid names.
func FaultProfile(name string, seed int64) (*FaultModel, error) {
	switch name {
	case "standard":
		return StandardFaultProfile(seed), nil
	case "failures":
		return FailureFaultProfile(seed), nil
	case "stragglers":
		return StragglerFaultProfile(seed), nil
	}
	return nil, fmt.Errorf("mrsim: unknown fault profile %q (want standard, failures, or stragglers)", name)
}
