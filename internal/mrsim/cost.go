package mrsim

import (
	"math"

	"github.com/stubby-mr/stubby/internal/wf"
)

// The task cost model, shared by the executor (which prices each task from
// its actual record and byte counts) and the What-if engine (which prices
// an average task from profile-estimated job totals). Both build durations
// with MapTaskCost and ReduceTaskCost and add them up with TaskCost.Total
// or Work, so the engines differ only in the volumes they feed in — which
// is what makes cost estimates track actual simulated performance, up to
// profiling error, as Figure 14 plots. Nothing else composes the
// primitives below those two functions.

// TaskCost is one task's duration split into the cost model's terms, in
// seconds: task setup, input read, shuffle fetch, its decompression and
// extra merge passes, pipeline CPU, map-side sort and spill, output write.
// A map task leaves Net, Decompress and Merge zero; a reduce task leaves
// Read, Sort and Spill zero.
type TaskCost struct {
	Setup, Read, Net, Decompress, Merge, CPU, Sort, Spill, Write float64
}

// Total returns the task's duration: the terms added in field order, setup
// first. A zero term leaves the sum unchanged, so map and reduce tasks share
// one order.
func (t TaskCost) Total() float64 {
	return t.Setup + t.Read + t.Net + t.Decompress + t.Merge + t.CPU + t.Sort + t.Spill + t.Write
}

// Work returns Total without the setup term.
func (t TaskCost) Work() float64 {
	return t.Read + t.Net + t.Decompress + t.Merge + t.CPU + t.Sort + t.Spill + t.Write
}

// MapTaskVolume is what a job's map tasks move, as totals over Tasks ≥ 1
// tasks (1 for one task's own volume): the seconds to read the input (DiskTime
// per input, added in job input order), the pipelines' and combiner's CPU
// seconds, the shuffled output the tasks sort and spill, and the map-only
// output they write. Records, bytes and CPU are virtual.
type MapTaskVolume struct {
	Tasks                            int
	ReadSec, CPUSec                  float64
	OutRecords, OutBytes, WriteBytes float64
}

// MapTaskCost prices the average map task of v under the job's
// configuration.
func (c *Cluster) MapTaskCost(v MapTaskVolume, cfg wf.Config) TaskCost {
	n := float64(v.Tasks)
	return TaskCost{
		Setup: c.TaskSetupSec,
		Read:  v.ReadSec / n,
		CPU:   v.CPUSec / n,
		Sort:  c.sortCPU(v.OutRecords / n),
		Spill: c.spillIOTime(v.OutBytes/n, cfg.SortBufferMB, cfg.IOSortFactor, cfg.CompressMapOutput),
		Write: c.DiskTime(v.WriteBytes/n, cfg.CompressOutput),
	}
}

// ReduceTaskVolume is what one reduce task moves: its shuffled input
// (uncompressed) in Runs sorted segments, its pipelines' CPU seconds and
// its output. Bytes and CPU are virtual.
type ReduceTaskVolume struct {
	InBytes          float64
	Runs             int
	CPUSec, OutBytes float64
}

// ReduceTaskCost prices one reduce task of v under the job's configuration.
func (c *Cluster) ReduceTaskCost(v ReduceTaskVolume, cfg wf.Config) TaskCost {
	var decomp float64
	if cfg.CompressMapOutput {
		decomp = v.InBytes / MB * c.CompressCPUSecPerMB
	}
	return TaskCost{
		Setup:      c.TaskSetupSec,
		Net:        c.netTime(c.wireBytes(v.InBytes, cfg.CompressMapOutput)),
		Decompress: decomp,
		Merge:      c.mergeIOTime(v.InBytes, v.Runs, cfg.IOSortFactor),
		CPU:        v.CPUSec,
		Write:      c.DiskTime(v.OutBytes, cfg.CompressOutput),
	}
}

// DiskTime returns the seconds to read or write bytesVirtual of logical
// data on local disk, given its on-disk compression state.
func (c *Cluster) DiskTime(bytesVirtual float64, compressed bool) float64 {
	if bytesVirtual <= 0 {
		return 0
	}
	disk := bytesVirtual
	var cpu float64
	if compressed {
		disk *= c.CompressRatio
		cpu = bytesVirtual / MB * c.CompressCPUSecPerMB
	}
	return disk/MB/c.DiskMBps + cpu
}

// wireBytes returns the on-wire size of bytesVirtual of shuffled map
// output.
func (c *Cluster) wireBytes(bytesVirtual float64, compressed bool) float64 {
	if compressed {
		return bytesVirtual * c.CompressRatio
	}
	return bytesVirtual
}

// spillRuns returns how many sorted runs the map side writes for the given
// (virtual) output bytes and sort buffer size. Output fitting in the buffer
// spills once.
func spillRuns(outBytesVirtual float64, sortBufferMB int) int {
	if outBytesVirtual <= 0 {
		return 0
	}
	buf := float64(sortBufferMB) * MB
	runs := int(math.Ceil(outBytesVirtual / buf))
	if runs < 1 {
		runs = 1
	}
	return runs
}

// extraMergePasses returns how many additional full read+write passes over
// the data are needed to merge `runs` sorted runs with a fan-in of
// `factor`: ceil(log_factor(runs)) - 1 extra passes beyond the initial
// spill, floored at zero.
func extraMergePasses(runs, factor int) int {
	if runs <= 1 || factor < 2 {
		return 0
	}
	passes := int(math.Ceil(math.Log(float64(runs)) / math.Log(float64(factor))))
	if passes < 1 {
		passes = 1
	}
	return passes - 1
}

// netTime returns the seconds to move bytesVirtual of on-wire data across
// the network.
func (c *Cluster) netTime(bytesVirtual float64) float64 {
	if bytesVirtual <= 0 {
		return 0
	}
	return bytesVirtual / MB / c.NetMBps
}

// sortCPU returns the comparison cost of sorting recordsVirtual records.
func (c *Cluster) sortCPU(recordsVirtual float64) float64 {
	if recordsVirtual < 2 {
		return 0
	}
	return recordsVirtual * math.Log2(recordsVirtual) * c.SortCPUPerRecord
}

// spillIOTime returns the disk seconds for the map-side sort/spill
// pipeline: one write of the (possibly compressed) map output plus
// read+write for each extra merge pass.
func (c *Cluster) spillIOTime(outBytesVirtual float64, sortBufferMB, ioSortFactor int, compressed bool) float64 {
	if outBytesVirtual <= 0 {
		return 0
	}
	onDisk := outBytesVirtual
	var cpu float64
	if compressed {
		onDisk *= c.CompressRatio
		cpu = outBytesVirtual / MB * c.CompressCPUSecPerMB
	}
	runs := spillRuns(outBytesVirtual, sortBufferMB)
	extra := extraMergePasses(runs, ioSortFactor)
	diskTime := onDisk / MB / c.DiskMBps * float64(1+2*extra)
	return diskTime + cpu
}

// mergeIOTime returns the reduce-side disk seconds to merge `runs` fetched
// map segments totalling bytesVirtual: read+write per extra pass.
func (c *Cluster) mergeIOTime(bytesVirtual float64, runs, ioSortFactor int) float64 {
	extra := extraMergePasses(runs, ioSortFactor)
	if extra == 0 || bytesVirtual <= 0 {
		return 0
	}
	return bytesVirtual / MB / c.DiskMBps * float64(2*extra)
}
