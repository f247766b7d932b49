package mrsim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/stubby-mr/stubby/internal/wf"
)

// The four task-duration compositions the simulator and the What-if engine
// wrote out by hand before both priced tasks through MapTaskCost and
// ReduceTaskCost, kept term for term under the primitives' current names
// (the write-time primitive they called had DiskTime's body).
// TestTaskCostMatchesReference holds the shared functions to them bit for
// bit.

// refSimMap is the simulator's map task: setup, then each input's read in
// the given order (the old code ranged over a Go map), the task's CPU, sort
// and spill when it had shuffled output, and one write per map-only tag.
func refSimMap(c *Cluster, cfg wf.Config, reads []splitRead, taskCPU float64, outRecords, outBytes int64, writes []int64) float64 {
	dur := c.TaskSetupSec
	for _, r := range reads {
		dur += c.DiskTime(c.Scale(float64(r.bytes)), r.compressed)
	}
	dur += c.Scale(taskCPU)
	if outRecords > 0 {
		dur += c.sortCPU(c.Scale(float64(outRecords)))
		dur += c.spillIOTime(c.Scale(float64(outBytes)), cfg.SortBufferMB, cfg.IOSortFactor, cfg.CompressMapOutput)
	}
	for _, b := range writes {
		if b > 0 {
			dur += c.DiskTime(c.Scale(float64(b)), cfg.CompressOutput)
		}
	}
	return dur
}

// refSimReduce is the simulator's reduce task.
func refSimReduce(c *Cluster, cfg wf.Config, shuffleBytes int64, fetchRuns int, taskCPU float64, outBytes int64) float64 {
	wire := c.Scale(float64(shuffleBytes))
	var decompCPU float64
	if cfg.CompressMapOutput {
		decompCPU = wire / MB * c.CompressCPUSecPerMB
		wire *= c.CompressRatio
	}
	return c.TaskSetupSec +
		c.netTime(wire) + decompCPU +
		c.mergeIOTime(c.Scale(float64(shuffleBytes)), fetchRuns, cfg.IOSortFactor) +
		c.Scale(taskCPU) +
		c.DiskTime(c.Scale(float64(outBytes)), cfg.CompressOutput)
}

// refInput is one job input as the What-if engine sees it (real bytes).
type refInput struct {
	bytes      float64
	compressed bool
}

// refWhatifMap is the What-if engine's average map task, from job totals
// in real units.
func refWhatifMap(c *Cluster, cfg wf.Config, numMapTasks int, inputs []refInput, totalMapCPU, combineCPU, shuffledRecords, shuffledBytes, mapWriteOnly float64) float64 {
	var readTime float64
	for _, in := range inputs {
		readTime += c.DiskTime(c.Scale(in.bytes), in.compressed)
	}
	perTaskOutBytes := c.Scale(shuffledBytes) / float64(numMapTasks)
	perTaskOutRecords := c.Scale(shuffledRecords) / float64(numMapTasks)
	return c.TaskSetupSec +
		readTime/float64(numMapTasks) +
		c.Scale(totalMapCPU+combineCPU)/float64(numMapTasks) +
		c.sortCPU(perTaskOutRecords) +
		c.spillIOTime(perTaskOutBytes, cfg.SortBufferMB, cfg.IOSortFactor, cfg.CompressMapOutput) +
		c.DiskTime(c.Scale(mapWriteOnly)/float64(numMapTasks), cfg.CompressOutput)
}

// refTag is one shuffling tag as the What-if engine's reduce side sees it
// (real units, job totals).
type refTag struct {
	mapOutBytes, mapOutRecords, outBytes float64
	numParts                             int
	maxShare                             float64
	cpuPerRecord                         float64
}

// refWhatifReduce is the What-if engine's average and straggler reduce
// task: each tag priced on its own, setup added last.
func refWhatifReduce(c *Cluster, cfg wf.Config, tags []refTag, numMapTasks int) (avg, max float64) {
	var avgContent, maxContent float64
	for _, te := range tags {
		inBytesAvg := c.Scale(te.mapOutBytes) / float64(te.numParts)
		inRecsAvg := c.Scale(te.mapOutRecords) / float64(te.numParts)
		outBytesAvg := c.Scale(te.outBytes) / float64(te.numParts)
		scale := te.maxShare * float64(te.numParts) // >= 1
		for i, f := range []float64{1, scale} {
			inBytes := inBytesAvg * f
			inRecs := inRecsAvg * f
			outBytes := outBytesAvg * f
			wire := inBytes
			var decomp float64
			if cfg.CompressMapOutput {
				decomp = wire / MB * c.CompressCPUSecPerMB
				wire *= c.CompressRatio
			}
			d := c.netTime(wire) + decomp +
				c.mergeIOTime(inBytes, numMapTasks, cfg.IOSortFactor) +
				inRecs*te.cpuPerRecord +
				c.DiskTime(outBytes, cfg.CompressOutput)
			if i == 0 {
				avgContent += d
			} else {
				maxContent += d
			}
		}
	}
	return c.TaskSetupSec + avgContent, c.TaskSetupSec + maxContent
}

// costCase draws the random pieces of one comparison: a calibrated
// cluster, a configuration, and volumes that are zero a fifth of the time.
type costCase struct{ r *rand.Rand }

func (g costCase) cluster() *Cluster {
	c := DefaultCluster()
	c.VirtualScale = []float64{1, 1000, 2500, 37.5}[g.r.Intn(4)]
	c.DiskMBps = 20 + 180*g.r.Float64()
	c.NetMBps = 10 + 90*g.r.Float64()
	c.TaskSetupSec = 5 * g.r.Float64()
	c.SortCPUPerRecord = 1e-7 * g.r.Float64()
	c.CompressRatio = 0.05 + 0.95*g.r.Float64()
	c.CompressCPUSecPerMB = 0.02 * g.r.Float64()
	return c
}

func (g costCase) config() wf.Config {
	return wf.Config{
		NumReduceTasks:    1 + g.r.Intn(64),
		SplitSizeMB:       128,
		SortBufferMB:      []int{1, 10, 100}[g.r.Intn(3)],
		IOSortFactor:      2 + g.r.Intn(20),
		CompressMapOutput: g.r.Intn(2) == 0,
		CompressOutput:    g.r.Intn(2) == 0,
	}
}

func (g costCase) count(max int64) int64 {
	if g.r.Intn(5) == 0 {
		return 0
	}
	return 1 + g.r.Int63n(max)
}

func (g costCase) amount(max float64) float64 {
	if g.r.Intn(5) == 0 {
		return 0
	}
	return max * g.r.Float64()
}

// runs draws a merge run count around the sort factor's powers.
func (g costCase) runs(factor int) int {
	switch g.r.Intn(7) {
	case 0:
		return g.r.Intn(2)
	case 1:
		return factor - 1
	case 2:
		return factor
	case 3:
		return factor + 1
	case 4:
		return factor * factor
	case 5:
		return factor*factor + 1
	}
	return g.r.Intn(10000)
}

func (g costCase) tasks() int {
	if g.r.Intn(3) == 0 {
		return 1
	}
	return 2 + g.r.Intn(9000)
}

// ulps returns how many floats apart two non-negative durations are.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestTaskCostMatchesReference prices seeded random tasks both ways and
// requires bitwise-equal durations. The one intended difference: the
// simulator writes a map task's map-only outputs as one write of their
// summed bytes and adds its reads up before setup joins them, where the old
// code added each write and each read to the running duration. Disk time
// is linear in bytes, so that case is bitwise with one write and one read,
// and within 4 ulps with several.
func TestTaskCostMatchesReference(t *testing.T) {
	const cases = 3000
	for seed := int64(0); seed < cases; seed++ {
		g := costCase{rand.New(rand.NewSource(seed))}
		c, cfg := g.cluster(), g.config()

		// Simulator map task.
		reads := make([]splitRead, 1+g.r.Intn(3))
		var readSec float64
		for i := range reads {
			reads[i] = splitRead{bytes: g.count(1 << 26), compressed: g.r.Intn(2) == 0}
			readSec += c.DiskTime(c.Scale(float64(reads[i].bytes)), reads[i].compressed)
		}
		if g.r.Intn(2) == 0 {
			reads = reads[:1]
			readSec = c.DiskTime(c.Scale(float64(reads[0].bytes)), reads[0].compressed)
		}
		writes := make([]int64, g.r.Intn(4))
		var writeBytes int64
		for i := range writes {
			writes[i] = g.count(1 << 26)
			writeBytes += writes[i]
		}
		taskCPU := g.amount(30)
		outRecords := g.count(1 << 20)
		outBytes := outRecords * (1 + g.r.Int63n(400))
		want := refSimMap(c, cfg, reads, taskCPU, outRecords, outBytes, writes)
		got := c.MapTaskCost(MapTaskVolume{
			Tasks:      1,
			ReadSec:    readSec,
			CPUSec:     c.Scale(taskCPU),
			OutRecords: c.Scale(float64(outRecords)),
			OutBytes:   c.Scale(float64(outBytes)),
			WriteBytes: c.Scale(float64(writeBytes)),
		}, cfg).Total()
		if len(reads) <= 1 && len(writes) <= 1 {
			if got != want {
				t.Fatalf("seed %d: simulator map task %v, reference %v", seed, got, want)
			}
		} else if d := ulps(got, want); d > 4 {
			t.Fatalf("seed %d: simulator map task over %d reads, %d writes: %v, reference %v (%d ulps)",
				seed, len(reads), len(writes), got, want, d)
		}

		// Simulator reduce task.
		shuffle, runs, redCPU, redOut := g.count(1<<28), g.runs(cfg.IOSortFactor), g.amount(60), g.count(1<<27)
		want = refSimReduce(c, cfg, shuffle, runs, redCPU, redOut)
		got = c.ReduceTaskCost(ReduceTaskVolume{
			InBytes:  c.Scale(float64(shuffle)),
			Runs:     runs,
			CPUSec:   c.Scale(redCPU),
			OutBytes: c.Scale(float64(redOut)),
		}, cfg).Total()
		if got != want {
			t.Fatalf("seed %d: simulator reduce task %v, reference %v", seed, got, want)
		}

		// What-if average map task.
		numMapTasks := g.tasks()
		inputs := make([]refInput, 1+g.r.Intn(3))
		readSec = 0
		for i := range inputs {
			inputs[i] = refInput{bytes: g.amount(1e11), compressed: g.r.Intn(2) == 0}
			readSec += c.DiskTime(c.Scale(inputs[i].bytes), inputs[i].compressed)
		}
		mapCPU, combineCPU := g.amount(1e4), g.amount(1e3)
		shRecs := g.amount(1e9)
		shBytes := shRecs * 100 * g.r.Float64()
		writeOnly := g.amount(1e10)
		want = refWhatifMap(c, cfg, numMapTasks, inputs, mapCPU, combineCPU, shRecs, shBytes, writeOnly)
		got = c.MapTaskCost(MapTaskVolume{
			Tasks:      numMapTasks,
			ReadSec:    readSec,
			CPUSec:     c.Scale(mapCPU + combineCPU),
			OutRecords: c.Scale(shRecs),
			OutBytes:   c.Scale(shBytes),
			WriteBytes: c.Scale(writeOnly),
		}, cfg).Total()
		if got != want {
			t.Fatalf("seed %d: What-if map task over %d tasks %v, reference %v", seed, numMapTasks, got, want)
		}

		// What-if average and straggler reduce task: setup plus each tag's
		// Work(), setup last.
		tags := make([]refTag, 1+g.r.Intn(3))
		for i := range tags {
			recs := g.amount(1e9)
			tags[i] = refTag{
				mapOutRecords: recs,
				mapOutBytes:   recs * 100 * g.r.Float64(),
				outBytes:      g.amount(1e10),
				numParts:      1 + g.r.Intn(200),
				cpuPerRecord:  1e-6 * g.r.Float64(),
			}
			tags[i].maxShare = (1 + 3*g.r.Float64()) / float64(tags[i].numParts)
		}
		runs = numMapTasks
		if g.r.Intn(2) == 0 {
			runs = g.runs(cfg.IOSortFactor)
		}
		wantAvg, wantMax := refWhatifReduce(c, cfg, tags, runs)
		var avgWork, maxWork float64
		for _, te := range tags {
			n := float64(te.numParts)
			for i, f := range []float64{1, te.maxShare * n} {
				w := c.ReduceTaskCost(ReduceTaskVolume{
					InBytes:  c.Scale(te.mapOutBytes) / n * f,
					Runs:     runs,
					CPUSec:   c.Scale(te.mapOutRecords) / n * f * te.cpuPerRecord,
					OutBytes: c.Scale(te.outBytes) / n * f,
				}, cfg).Work()
				if i == 0 {
					avgWork += w
				} else {
					maxWork += w
				}
			}
		}
		if gotAvg, gotMax := c.TaskSetupSec+avgWork, c.TaskSetupSec+maxWork; gotAvg != wantAvg || gotMax != wantMax {
			t.Fatalf("seed %d: What-if reduce task over %d tags (avg, max) = (%v, %v), reference (%v, %v)",
				seed, len(tags), gotAvg, gotMax, wantAvg, wantMax)
		}
	}
}
