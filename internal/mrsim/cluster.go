// Package mrsim is the MapReduce runtime substrate standing in for Hadoop:
// a deterministic in-process engine that really executes workflow programs
// over records while accounting simulated wall-clock time with a calibrated
// cost model (disk and network bandwidth, per-record CPU, task setup, sort
// and spill passes, compression trade-offs) on a simulated cluster of task
// slots. The substitution keeps what the paper's evaluation exercises: every
// optimizer decision trades quantities the model charges for, and because
// jobs really run, a plan's output compares record for record with another's.
package mrsim

import "fmt"

// MB is the simulator's megabyte (decimal, matching disk vendor units).
const MB = 1e6

// Cluster describes the simulated cluster and the cost-model calibration.
// Defaults mirror the paper's testbed shape: 50 worker nodes, each running
// at most 3 map and 2 reduce tasks concurrently (Section 7).
type Cluster struct {
	// Nodes is the number of worker nodes.
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode bound concurrent tasks.
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// DiskMBps is sequential local-disk bandwidth per task.
	DiskMBps float64
	// NetMBps is shuffle network bandwidth per reduce task.
	NetMBps float64
	// TaskSetupSec is the fixed cost of launching one task (JVM start,
	// scheduling, commit) — the overhead vertical packing eliminates when
	// it removes whole task waves.
	TaskSetupSec float64
	// SortCPUPerRecord calibrates comparison cost: sorting n records costs
	// n·log2(n)·SortCPUPerRecord seconds.
	SortCPUPerRecord float64
	// CompressRatio is compressed size over uncompressed size.
	CompressRatio float64
	// CompressCPUSecPerMB is the CPU cost to (de)compress one MB.
	CompressCPUSecPerMB float64
	// VirtualScale is the data-scale substitution: each materialized
	// record stands for VirtualScale real records in all cost accounting,
	// letting laptop-sized in-memory data exercise the cost dynamics of
	// the paper's multi-hundred-GB datasets.
	VirtualScale float64
}

// DefaultCluster returns the evaluation cluster: 50 nodes x (3 map, 2
// reduce) slots, matching the concurrency shape of the paper's 51-node EC2
// deployment (one node is the master).
func DefaultCluster() *Cluster {
	return &Cluster{
		Nodes:               50,
		MapSlotsPerNode:     3,
		ReduceSlotsPerNode:  2,
		DiskMBps:            90,
		NetMBps:             45,
		TaskSetupSec:        2.0,
		SortCPUPerRecord:    40e-9,
		CompressRatio:       0.35,
		CompressCPUSecPerMB: 0.008,
		VirtualScale:        1,
	}
}

// TotalMapSlots returns cluster-wide concurrent map capacity.
func (c *Cluster) TotalMapSlots() int { return c.Nodes * c.MapSlotsPerNode }

// TotalReduceSlots returns cluster-wide concurrent reduce capacity.
func (c *Cluster) TotalReduceSlots() int { return c.Nodes * c.ReduceSlotsPerNode }

// SlotSpeeds expands the cluster's node population into per-slot speed
// factors for the map (reduce=false) or reduce (reduce=true) side. With
// no node classes every slot runs at speed 1 and the population is the
// cluster's own Nodes x slots-per-node; a non-empty class list replaces
// that population entirely, in declaration order, with each class
// contributing Nodes x per-node slots at its Speed (per-node counts
// default to the cluster's when a class leaves them zero).
func (c *Cluster) SlotSpeeds(classes []NodeClass, reduce bool) []float64 {
	if len(classes) == 0 {
		n := c.TotalMapSlots()
		if reduce {
			n = c.TotalReduceSlots()
		}
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = 1
		}
		return speeds
	}
	var speeds []float64
	for _, nc := range classes {
		per := nc.MapSlotsPerNode
		if reduce {
			per = nc.ReduceSlotsPerNode
		}
		if per == 0 {
			if reduce {
				per = c.ReduceSlotsPerNode
			} else {
				per = c.MapSlotsPerNode
			}
		}
		for i := 0; i < nc.Nodes*per; i++ {
			speeds = append(speeds, nc.Speed)
		}
	}
	if len(speeds) == 0 {
		speeds = []float64{1}
	}
	return speeds
}

// Validate rejects non-positive parameters.
func (c *Cluster) Validate() error {
	switch {
	case c.Nodes < 1 || c.MapSlotsPerNode < 1 || c.ReduceSlotsPerNode < 1:
		return fmt.Errorf("mrsim: cluster must have positive nodes and slots")
	case c.DiskMBps <= 0 || c.NetMBps <= 0:
		return fmt.Errorf("mrsim: cluster bandwidths must be positive")
	case c.CompressRatio <= 0 || c.CompressRatio > 1:
		return fmt.Errorf("mrsim: compress ratio must be in (0,1]")
	case c.VirtualScale <= 0:
		return fmt.Errorf("mrsim: virtual scale must be positive")
	case c.TaskSetupSec < 0 || c.SortCPUPerRecord < 0 || c.CompressCPUSecPerMB < 0:
		return fmt.Errorf("mrsim: cost constants must be non-negative")
	}
	return nil
}

// Scale converts a materialized count or byte size to its virtual
// equivalent for cost accounting.
func (c *Cluster) Scale(n float64) float64 { return n * c.VirtualScale }
