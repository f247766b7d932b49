package mrsim

import (
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// BenchmarkExecuteGroupSum measures raw executor throughput: one
// group-and-sum job over 50k records on the default cluster.
func BenchmarkExecuteGroupSum(b *testing.B) {
	pairs := genPairs(50000, 500, 1)
	job := sumJob("J", "in", "out")
	job.Config.NumReduceTasks = 50
	w := singleJobWorkflow(job, "in", "out")
	cluster := testCluster()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dfs := NewDFS()
		if err := dfs.Ingest("in", pairs, IngestSpec{
			NumPartitions: 8,
			KeyFields:     []string{"k"},
			Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := NewEngine(cluster, dfs).RunWorkflow(w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50000*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSlotPoolSchedule measures per-task placement on a 150-slot pool:
// equal tasks, which keep the slots' free times in few runs, and tasks that
// all differ in length, the shape of the simulator's Engine.runJob, which
// keeps one run per slot.
func BenchmarkSlotPoolSchedule(b *testing.B) {
	b.Run("equal", func(b *testing.B) {
		pool := NewSlotPool(150)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Schedule(0, 1)
		}
	})
	b.Run("distinct", func(b *testing.B) {
		pool, durs := NewSlotPool(150), distinctDurations(4096)
		for _, d := range durs {
			pool.Schedule(0, d)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Schedule(0, durs[i%len(durs)])
		}
	})
}

// BenchmarkScheduleUniform measures the batched scheduler the What-if
// engine prices every job's tasks with, on a 150-slot pool rewound from a
// snapshot the way the incremental estimator replays it. The sub-benchmarks
// are the shapes a CPU profile of the eight paper optimizations found:
// about 95 tasks on the per-task path, and the water-level path with one
// distinct slot start (most calls) or three (nearly all the rest).
func BenchmarkScheduleUniform(b *testing.B) {
	fresh := NewSlotPool(150)
	staggered := NewSlotPool(150)
	for _, d := range []float64{1, 3, 5} {
		staggered.Schedule(0, d)
	}
	for _, bc := range []struct {
		name  string
		pool  *SlotPool
		ready float64
		count int
	}{
		{"tasks", fresh, 0, 95},
		{"water-1start", fresh, 0, 5000},
		// Ready at 1, the idle slots and the one busy until 1 share the
		// first start; the other two start at 3 and 5.
		{"water-3starts", staggered, 1, 5000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool, snap := NewSlotPool(150), bc.pool.Snapshot()
			pool.ScheduleUniform(bc.ready, 3.5, bc.count) // warm the pool's buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Restore(snap)
				pool.ScheduleUniform(bc.ready, 3.5, bc.count)
			}
		})
	}
}

// BenchmarkChainPush measures pipeline execution: a three-stage chain
// (map, grouped sum, map) over a clustered stream.
func BenchmarkChainPush(b *testing.B) {
	stages := []wf.Stage{
		wf.MapStage("m", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 0),
		wf.ReduceStage("r", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
			emit(k, keyval.T(int64(len(vs))))
		}, []int{0}, 0),
		wf.MapStage("m2", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 0),
	}
	pairs := make([]keyval.Pair, 1000)
	for i := range pairs {
		pairs[i] = keyval.Pair{Key: keyval.T(int64(i / 10)), Value: keyval.T(int64(1))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := newChain(stages, func(keyval.Pair) {})
		for _, p := range pairs {
			ch.head(p)
		}
		ch.close()
	}
}
