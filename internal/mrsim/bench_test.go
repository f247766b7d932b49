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

// BenchmarkSlotPoolSchedule measures the event scheduler.
func BenchmarkSlotPoolSchedule(b *testing.B) {
	pool := NewSlotPool(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Schedule(0, 1)
	}
}

// BenchmarkScheduleUniform measures the batched scheduler the What-if
// engine uses for thousands of uniform tasks, on a pool rewound from a
// snapshot the way the incremental estimator replays it.
func BenchmarkScheduleUniform(b *testing.B) {
	pool := NewSlotPool(150)
	snap := pool.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Restore(snap)
		pool.ScheduleUniform(0, 3.5, 5000)
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
