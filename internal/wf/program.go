// Package wf defines Stubby's plan representation: an annotated workflow of
// MapReduce jobs and datasets (Section 2 of the paper).
//
// A plan is a DAG whose vertices are Jobs and Datasets. Each Job carries a
// MapReduce program expressed as pipelines of stages, a configuration, and
// annotations (schema, filter, profile). Each Dataset carries a physical
// layout and dataset annotations. Transformations (package trans) rewrite
// this representation; the simulator (package mrsim) executes it.
package wf

import (
	"fmt"
	"slices"

	"github.com/stubby-mr/stubby/internal/keyval"
)

// Emit is the output callback passed to map and reduce functions.
type Emit func(key, value keyval.Tuple)

// MapFn is the map function signature: map(K1,V1) -> list(K2,V2).
type MapFn func(key, value keyval.Tuple, emit Emit)

// ReduceFn is the reduce/combine function signature:
// reduce(K2, list(V2)) -> list(K3,V3).
type ReduceFn func(key keyval.Tuple, values []keyval.Tuple, emit Emit)

// StageKind distinguishes per-record (map) stages from grouped (reduce)
// stages inside a pipeline.
type StageKind int

const (
	// MapKind stages are invoked once per input record.
	MapKind StageKind = iota
	// ReduceKind stages are invoked once per group of consecutive records
	// that agree on the stage's GroupFields. Correctness requires the
	// incoming stream to be clustered on those fields, which is exactly
	// what the vertical packing postconditions guarantee.
	ReduceKind
)

func (k StageKind) String() string {
	if k == MapKind {
		return "map"
	}
	return "reduce"
}

// Stage is one function in a pipeline. After vertical packing a single
// map or reduce task executes several stages back to back ("wrapper
// classes" in the paper's implementation section).
type Stage struct {
	// Name identifies the original function (e.g. "M5", "R7").
	Name string
	// Kind selects which of Map/Reduce is set.
	Kind StageKind
	// Map is the per-record function for MapKind stages.
	Map MapFn
	// Reduce is the per-group function for ReduceKind stages.
	Reduce ReduceFn
	// GroupFields are indices into the stage's incoming key tuple that
	// define its grouping (only for ReduceKind). Nil groups on the whole
	// key.
	GroupFields []int
	// CPUPerRecord is the ground-truth compute cost in seconds consumed
	// per input record. The simulator charges it when executing; the
	// profiler observes it through execution.
	CPUPerRecord float64
}

// MapStage builds a per-record stage.
func MapStage(name string, fn MapFn, cpuPerRecord float64) Stage {
	return Stage{Name: name, Kind: MapKind, Map: fn, CPUPerRecord: cpuPerRecord}
}

// ReduceStage builds a grouped stage. groupFields nil groups on the full key.
func ReduceStage(name string, fn ReduceFn, groupFields []int, cpuPerRecord float64) Stage {
	return Stage{Name: name, Kind: ReduceKind, Reduce: fn, GroupFields: groupFields, CPUPerRecord: cpuPerRecord}
}

// Clone copies a stage. Function values are immutable and shared. Nil and
// empty GroupFields are distinct (whole-key vs per-stream grouping), so the
// copy preserves nil-ness exactly.
func (s Stage) Clone() Stage {
	out := s
	if s.GroupFields != nil {
		out.GroupFields = make([]int, len(s.GroupFields))
		copy(out.GroupFields, s.GroupFields)
	}
	return out
}

// Filter is a filter annotation: the branch's map pipeline only passes
// records whose named input field lies in the interval (Section 2.2).
type Filter struct {
	// Field is the input field name the predicate applies to.
	Field string
	// Interval is the half-open accepted range.
	Interval keyval.Interval
}

// Clone copies the filter annotation.
func (f *Filter) Clone() *Filter {
	if f == nil {
		return nil
	}
	out := *f
	return &out
}

func (f *Filter) String() string {
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("%s in %s", f.Field, f.Interval)
}

// MapBranch is the map-side pipeline of one packed sub-program. An
// untransformed job has exactly one branch; horizontal packing introduces
// several (one per original job), and a multi-input job (e.g. a repartition
// join) has one branch per input dataset sharing a Tag.
type MapBranch struct {
	// Tag routes this branch's output to the ReduceGroup with the same tag.
	Tag int
	// Input is the dataset ID this branch reads.
	Input string
	// Stages is the pipeline executed per input record in map tasks. It
	// may contain ReduceKind stages after intra-job vertical packing.
	Stages []Stage
	// Filter is the branch's filter annotation (nil if none/unknown).
	Filter *Filter
	// KeyIn/ValIn name the fields of the branch input (K1/V1 schema
	// annotation); nil means unknown.
	KeyIn, ValIn []string
	// KeyOut/ValOut name the fields of the branch's map output (K2/V2);
	// nil means unknown.
	KeyOut, ValOut []string
}

// Clone deep-copies the branch.
func (b MapBranch) Clone() MapBranch {
	out := b
	out.Stages = cloneStages(b.Stages)
	out.Filter = b.Filter.Clone()
	out.KeyIn = cloneStrings(b.KeyIn)
	out.ValIn = cloneStrings(b.ValIn)
	out.KeyOut = cloneStrings(b.KeyOut)
	out.ValOut = cloneStrings(b.ValOut)
	return out
}

// PartitionConstraint records a condition imposed on a group's partition
// function by an earlier transformation or by the workflow generator; any
// later partition function transformation must keep satisfying it
// (Section 3.4: "the new partition function ... should satisfy all current
// conditions").
type PartitionConstraint struct {
	// CoGroup requires all records equal on these key field names to land
	// in the same partition.
	CoGroup []string
	// SortPrefix requires the per-partition sort order to start with these
	// field names, in order.
	SortPrefix []string
	// RequireType pins the partitioning type if non-nil (e.g. a sort job
	// needs range partitioning).
	RequireType *keyval.PartitionType
	// Reason documents which transformation imposed the constraint.
	Reason string
}

// Clone copies the constraint.
func (c PartitionConstraint) Clone() PartitionConstraint {
	out := c
	out.CoGroup = cloneStrings(c.CoGroup)
	out.SortPrefix = cloneStrings(c.SortPrefix)
	if c.RequireType != nil {
		t := *c.RequireType
		out.RequireType = &t
	}
	return out
}

// ReduceGroup is the reduce-side pipeline of one packed sub-program plus
// the partition function feeding it. A group with no stages is map-only:
// its branch's map output is written directly to Output.
type ReduceGroup struct {
	// Tag matches MapBranch.Tag.
	Tag int
	// Stages is the pipeline executed in reduce tasks. It may interleave
	// MapKind and ReduceKind stages after inter-job vertical packing
	// (e.g. [R5, M7, R7] in Figure 4).
	Stages []Stage
	// RunsMapSide marks a group whose Stages execute inside map tasks,
	// pipelined after the branch pipelines on the (merged) input stream —
	// the result of intra-job vertical packing: the reduce function moves
	// to the map side because the input layout already satisfies its
	// grouping requirement (Figure 4, plan P+). Such a group performs no
	// partition/sort/shuffle.
	RunsMapSide bool
	// Combiner optionally pre-aggregates map output for this tag.
	Combiner *Stage
	// Output is the dataset ID the group writes.
	Output string
	// Part is the partition function for this tag's map output.
	Part keyval.PartitionSpec
	// Constraints restrict future changes to Part.
	Constraints []PartitionConstraint
	// KeyIn/ValIn name the reduce input fields (K2/V2); nil = unknown.
	KeyIn, ValIn []string
	// KeyOut/ValOut name the group's output fields (K3/V3); nil = unknown.
	KeyOut, ValOut []string
}

// MapOnly reports whether this group performs no shuffle: it either has no
// grouped pipeline at all or runs it map-side after vertical packing.
func (g ReduceGroup) MapOnly() bool { return len(g.Stages) == 0 || g.RunsMapSide }

// Partitions returns how many of a job's numReduce reduce tasks the group's
// map output is partitioned over: a range group keeps one partition per
// split-point interval, a hash group spans them all, and a map-only group
// shuffles nothing (0).
func (g *ReduceGroup) Partitions(numReduce int) int {
	switch {
	case g.MapOnly():
		return 0
	case g.Part.Type == keyval.RangePartition:
		return g.Part.NumPartitions(numReduce)
	}
	return numReduce
}

// Clone copies the group for an independent edit: stages, combiner,
// constraints, name lists and the partition spec's field lists are copied,
// while the spec's split points are shared — they are never written in
// place (keyval.PartitionSpec.SplitPoints), and configuration search clones
// plans thousands of times.
func (g ReduceGroup) Clone() ReduceGroup {
	out := g
	out.Stages = cloneStages(g.Stages)
	if g.Combiner != nil {
		c := g.Combiner.Clone()
		out.Combiner = &c
	}
	// slices.Clone keeps nil ("all key fields") and empty distinct.
	out.Part.KeyFields = slices.Clone(g.Part.KeyFields)
	out.Part.SortFields = slices.Clone(g.Part.SortFields)
	if g.Constraints != nil {
		out.Constraints = make([]PartitionConstraint, len(g.Constraints))
		for i, c := range g.Constraints {
			out.Constraints[i] = c.Clone()
		}
	}
	out.KeyIn = cloneStrings(g.KeyIn)
	out.ValIn = cloneStrings(g.ValIn)
	out.KeyOut = cloneStrings(g.KeyOut)
	out.ValOut = cloneStrings(g.ValOut)
	return out
}

func cloneStages(in []Stage) []Stage {
	if in == nil {
		return nil
	}
	out := make([]Stage, len(in))
	for i, s := range in {
		out[i] = s.Clone()
	}
	return out
}

// cloneStrings copies a string slice, preserving nil-ness exactly: nil
// schemas mean "unknown" while empty ones are known-empty, and clones must
// not blur that distinction (append([]string(nil), empty...) would).
func cloneStrings(in []string) []string {
	if in == nil {
		return nil
	}
	out := make([]string, len(in))
	copy(out, in)
	return out
}
