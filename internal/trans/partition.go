package trans

import (
	"fmt"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// ApplyPartitionSpec returns a transformed copy where the given job group's
// partition function is replaced (Section 3.4). The new spec must satisfy
// every current condition on the group's partition function — constraints
// imposed by earlier packings, plus the group's own reduce-side grouping
// requirement.
func ApplyPartitionSpec(w *wf.Workflow, jobID string, tag int, spec keyval.PartitionSpec) (*wf.Workflow, error) {
	j := w.Job(jobID)
	if j == nil {
		return nil, fmt.Errorf("trans: no job %q", jobID)
	}
	g := j.Group(tag)
	if g == nil {
		return nil, fmt.Errorf("trans: job %s has no group %d", jobID, tag)
	}
	if g.MapOnly() {
		return nil, fmt.Errorf("trans: group %d of %s is map-only; no partition function", tag, jobID)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if g.KeyIn != nil {
		for _, f := range spec.KeyFields {
			if f < 0 || f >= len(g.KeyIn) {
				return nil, fmt.Errorf("trans: partition field %d out of K2 range", f)
			}
		}
		for _, f := range spec.SortFields {
			if f < 0 || f >= len(g.KeyIn) {
				return nil, fmt.Errorf("trans: sort field %d out of K2 range", f)
			}
		}
	}
	if err := checkPartitionConstraints(g, spec); err != nil {
		return nil, fmt.Errorf("trans: %s group %d: %w", jobID, tag, err)
	}
	if err := groupingPreserved(g, spec); err != nil {
		return nil, fmt.Errorf("trans: %s group %d: %w", jobID, tag, err)
	}
	if j.PinnedReducers && spec.NumPartitions(j.Config.NumReduceTasks) != j.Config.NumReduceTasks {
		return nil, fmt.Errorf("trans: %s group %d: partition count pinned to %d by an alignment postcondition",
			jobID, tag, j.Config.NumReduceTasks)
	}
	out := w.Clone()
	out.Job(jobID).Group(tag).Part = spec.Clone()
	return out, nil
}

// EnumeratePartitionSpecs proposes alternative partition functions for a
// group, beyond its current one:
//
//   - range partitioning on the current partition fields with equi-depth
//     split points derived from the profile's map-output key sample
//     (reduces skew — Section 3.4, first benefit);
//   - range partitioning aligned to the filter annotations of the jobs
//     consuming the group's output, enabling partition pruning (Figure 7 —
//     second benefit).
//
// Only specs that pass ApplyPartitionSpec's checks are returned.
// targetParts sizes the split-point count (the desired reduce-side
// parallelism, typically the cluster's reduce slots); zero falls back to
// the job's configured reducer count.
func EnumeratePartitionSpecs(w *wf.Workflow, jobID string, tag int, targetParts int) []keyval.PartitionSpec {
	var fresh *SplitMemo
	return fresh.EnumeratePartitionSpecs(w, jobID, tag, targetParts)
}

// SplitMemo memoizes equi-depth split points across the partition
// enumerations of one search, which ask for the same (sample, fields, n)
// triple for every subplan they are applied to. Key samples are write-once
// and shared by plan clones and profile composition (wf.PipelineProfile), so
// a sample is identified by the address of its first tuple; the pointer map
// key pins the backing array, so the address cannot be reused by another
// sample while the memo lives. The memoized split points are shared by every
// spec built from them and are never written or sorted in place. A nil
// *SplitMemo computes every list fresh. It is not safe for concurrent use.
type SplitMemo struct {
	points map[splitKey][]keyval.Tuple
}

// splitKey identifies one equi-depth computation: the sample (address and
// length), the projected fields (hashed, as the skew cache does) and the
// partition count.
type splitKey struct {
	sample *keyval.Tuple
	size   int
	fields uint64
	n      int
}

// NewSplitMemo returns an empty memo.
func NewSplitMemo() *SplitMemo {
	return &SplitMemo{points: make(map[splitKey][]keyval.Tuple)}
}

// equiDepth returns keyval.EquiDepthSplitPoints(sample, fields, n), from the
// memo when there is one. Callers pass effective key fields, never nil, so
// hashing them cannot confuse nil ("all fields") with empty.
func (m *SplitMemo) equiDepth(sample []keyval.Tuple, fields []int, n int) []keyval.Tuple {
	if m == nil || len(sample) == 0 {
		return keyval.EquiDepthSplitPoints(sample, fields, n)
	}
	k := splitKey{sample: &sample[0], size: len(sample), fields: keyval.HashInts(fields), n: n}
	points, ok := m.points[k]
	if !ok {
		points = keyval.EquiDepthSplitPoints(sample, fields, n)
		m.points[k] = points
	}
	return points
}

// EnumeratePartitionSpecs is the package function of the same name with its
// equi-depth split points taken from the memo. The returned specs may share
// split points with other calls' specs; ApplyPartitionSpec stores a copy.
func (m *SplitMemo) EnumeratePartitionSpecs(w *wf.Workflow, jobID string, tag int, targetParts int) []keyval.PartitionSpec {
	j := w.Job(jobID)
	if j == nil {
		return nil
	}
	g := j.Group(tag)
	if g == nil || g.MapOnly() || g.KeyIn == nil {
		return nil
	}
	var sample []keyval.Tuple
	if j.Profile != nil {
		if mp := j.Profile.MapSide[tag]; mp != nil {
			sample = mp.KeySample
		}
	}
	var out []keyval.PartitionSpec
	tryAdd := func(spec keyval.PartitionSpec) {
		if spec.Validate() != nil || len(spec.SplitPoints) == 0 {
			return
		}
		if checkPartitionConstraints(g, spec) != nil || groupingPreserved(g, spec) != nil {
			return
		}
		if j.PinnedReducers && spec.NumPartitions(j.Config.NumReduceTasks) != j.Config.NumReduceTasks {
			return
		}
		for _, prev := range out {
			if prev.Equal(spec) {
				return
			}
		}
		out = append(out, spec)
	}

	curKey := g.Part.EffectiveKeyFields(len(g.KeyIn))
	curSort := g.Part.EffectiveSortFields(len(g.KeyIn))
	n := targetParts
	if n < 2 {
		n = j.Config.NumReduceTasks
	}
	// Split-point quality is bounded by the sample: demand at least ~15
	// sampled keys per boundary or the ranges would be noise.
	if cap := len(sample) / 15; n > cap {
		n = cap
	}
	if n < 2 {
		n = 2
	}

	// 1. Equi-depth range partitioning on the current partition fields.
	if len(sample) > 0 {
		points := m.equiDepth(sample, curKey, n)
		tryAdd(keyval.PartitionSpec{
			Type:        keyval.RangePartition,
			KeyFields:   append([]int(nil), curKey...),
			SortFields:  append([]int(nil), curSort...),
			SplitPoints: points,
		})
	}

	// 2. Filter-aligned range partitioning for partition pruning: for each
	// consumer filter over a field of this group's output key, partition on
	// that field with split points at the filter boundaries (plus
	// equi-depth refinement from the sample).
	for _, field := range consumerFilterFields(w, g.Output) {
		idx := wf.FieldIndex(g.KeyIn, field)
		if idx < 0 || wf.FieldIndex(g.KeyOut, field) < 0 {
			continue
		}
		// A fresh slice: sortDedupPoints sorts in place, and the
		// equi-depth points may be the memo's.
		var points []keyval.Tuple
		for _, b := range consumerFilterBounds(w, g.Output, field) {
			points = append(points, keyval.T(b))
		}
		if len(sample) > 0 {
			points = append(points, m.equiDepth(sample, []int{idx}, n)...)
		}
		points = sortDedupPoints(points)
		// Sort order must start with the partition field to keep range
		// bounds aligned with the data; keep covering the grouping.
		sortIdx := append([]int{idx}, removeInt(curSort, idx)...)
		tryAdd(keyval.PartitionSpec{
			Type:        keyval.RangePartition,
			KeyFields:   []int{idx},
			SortFields:  sortIdx,
			SplitPoints: points,
		})
	}
	return out
}

// consumerFilterFields returns the distinct fields on which consumers of a
// dataset declare filter annotations, in consumer order.
func consumerFilterFields(w *wf.Workflow, dsID string) []string {
	var out []string
	seen := map[string]bool{}
	for _, jc := range w.Consumers(dsID) {
		for i := range jc.MapBranches {
			b := &jc.MapBranches[i]
			if b.Input == dsID && b.Filter != nil && !seen[b.Filter.Field] {
				seen[b.Filter.Field] = true
				out = append(out, b.Filter.Field)
			}
		}
	}
	return out
}

// consumerFilterBounds collects the finite interval endpoints of consumer
// filters over the given field.
func consumerFilterBounds(w *wf.Workflow, dsID, field string) []keyval.Field {
	var out []keyval.Field
	for _, jc := range w.Consumers(dsID) {
		for i := range jc.MapBranches {
			b := &jc.MapBranches[i]
			if b.Input != dsID || b.Filter == nil || b.Filter.Field != field {
				continue
			}
			if b.Filter.Interval.Lo != nil {
				out = append(out, b.Filter.Interval.Lo)
			}
			if b.Filter.Interval.Hi != nil {
				out = append(out, b.Filter.Interval.Hi)
			}
		}
	}
	return out
}

func sortDedupPoints(points []keyval.Tuple) []keyval.Tuple {
	keyval.SortTuples(points)
	var out []keyval.Tuple
	for _, p := range points {
		if len(out) == 0 || keyval.Compare(out[len(out)-1], p) < 0 {
			out = append(out, p)
		}
	}
	return out
}

func removeInt(xs []int, v int) []int {
	var out []int
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
