package whatif

import (
	"math/rand"
	"testing"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
)

// TestReduceDurationsIsSetupPlusTagWork pins the reduce side's float order:
// task setup added after the sum of each shuffling tag's
// mrsim.ReduceTaskCost Work(), tags in tag order, map-only tags skipped.
// Pricing the tags as one term-wise sum, or each with Total(), fails it;
// mrsim's TestTaskCostMatchesReference holds this order to the formula the
// estimates were recorded with.
func TestReduceDurationsIsSetupPlusTagWork(t *testing.T) {
	e := New(mrsim.DefaultCluster())
	c := e.Cluster
	c.VirtualScale = 1000
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := wf.DefaultConfig()
		cfg.CompressMapOutput = r.Intn(2) == 0
		cfg.CompressOutput = r.Intn(2) == 0
		cfg.IOSortFactor = 2 + r.Intn(20)
		job := &wf.Job{Config: cfg, Profile: &wf.JobProfile{ReduceSide: map[int]*wf.PipelineProfile{}}}
		var tags []tagEst
		for tag := 0; tag < 1+r.Intn(4); tag++ {
			g := &wf.ReduceGroup{Tag: tag}
			if r.Intn(4) > 0 {
				g.Stages = []wf.Stage{wf.ReduceStage("R", sumReduce, nil, 0)}
			}
			te := tagEst{
				group:         g,
				numParts:      1 + r.Intn(200),
				mapOutRecords: 1e9 * r.Float64(),
				outBytes:      1e10 * r.Float64(),
			}
			te.mapOutBytes = te.mapOutRecords * 100 * r.Float64()
			te.maxShare = (1 + 3*r.Float64()) / float64(te.numParts)
			tags = append(tags, te)
			job.Profile.ReduceSide[tag] = &wf.PipelineProfile{CPUPerRecord: 1e-6 * r.Float64()}
		}
		numMapTasks := 1 + r.Intn(9000)

		var avgWork, maxWork float64
		for k := range tags {
			te := &tags[k]
			tag := te.group.Tag
			if te.group.MapOnly() {
				continue
			}
			n := float64(te.numParts)
			cpu := job.Profile.ReduceSide[tag].CPUPerRecord
			for i, f := range []float64{1, te.maxShare * n} {
				w := c.ReduceTaskCost(mrsim.ReduceTaskVolume{
					InBytes:  c.Scale(te.mapOutBytes) / n * f,
					Runs:     numMapTasks,
					CPUSec:   c.Scale(te.mapOutRecords) / n * f * cpu,
					OutBytes: c.Scale(te.outBytes) / n * f,
				}, cfg).Work()
				if i == 0 {
					avgWork += w
				} else {
					maxWork += w
				}
			}
		}
		avg, max := e.reduceDurations(job, tags, numMapTasks)
		if avg != c.TaskSetupSec+avgWork || max != c.TaskSetupSec+maxWork {
			t.Fatalf("seed %d: reduceDurations = (%v, %v), want setup + tag work (%v, %v)",
				seed, avg, max, c.TaskSetupSec+avgWork, c.TaskSetupSec+maxWork)
		}
	}
}
