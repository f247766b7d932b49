// Package trans implements the five transformation types that define
// Stubby's plan space (Section 3): intra-job vertical packing, inter-job
// vertical packing, horizontal packing, partition function transformation,
// and (jointly with the optimizer's RRS search) configuration
// transformation.
//
// Every transformation is exposed as a pure function: it checks its
// preconditions against the annotations present in the plan and returns a
// transformed deep copy on which the postconditions hold, leaving the input
// plan untouched. If the preconditions cannot be verified from the
// available annotations the transformation refuses — this is how Stubby
// searches only the subspace of the plan space that can be enumerated
// correctly with the information at hand (the information spectrum).
package trans

import (
	"fmt"
	"strings"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// PathExists reports whether a dependency path leads from job `from` to job
// `to` in the workflow DAG.
func PathExists(w *wf.Workflow, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	frontier := []string{from}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, c := range w.JobConsumers(w.Job(cur)) {
			if c.ID == to {
				return true
			}
			if !seen[c.ID] {
				seen[c.ID] = true
				frontier = append(frontier, c.ID)
			}
		}
	}
	return false
}

// ConcurrentlyRunnable reports whether no dependency path connects any pair
// of the given jobs — the precondition for the extended horizontal packing
// (Section 3.3).
func ConcurrentlyRunnable(w *wf.Workflow, ids []string) bool {
	for i := range ids {
		for j := range ids {
			if i != j && PathExists(w, ids[i], ids[j]) {
				return false
			}
		}
	}
	return true
}

// StaticLayout computes the layout a dataset will have at runtime, as far
// as annotations allow: base datasets report their dataset annotation;
// produced datasets report the layout derived from their producer's
// partition spec, schemas, and configuration.
func StaticLayout(w *wf.Workflow, dsID string) wf.Layout {
	ds := w.Dataset(dsID)
	if ds == nil {
		return wf.Layout{}
	}
	jp := w.Producer(dsID)
	if jp == nil {
		return ds.Layout
	}
	for i := range jp.ReduceGroups {
		g := &jp.ReduceGroups[i]
		if g.Output != dsID {
			continue
		}
		if g.MapOnly() {
			var in wf.Layout
			for bi := range jp.MapBranches {
				if jp.MapBranches[bi].Tag == g.Tag {
					in = StaticLayout(w, jp.MapBranches[bi].Input)
					break
				}
			}
			return wf.DeriveMapOnlyOutputLayout(in, *g, jp.AlignMapToInput, jp.Config)
		}
		return wf.DeriveGroupOutputLayout(*g, jp.Config)
	}
	return wf.Layout{}
}

// StaticPartitionCount returns the partition count a dataset is guaranteed
// to have at runtime regardless of configuration choices, or 0 when the
// count is configuration-dependent: base datasets report their annotation;
// range-partitioned producers are pinned by their split points; aligned
// map-only producers inherit their input's count.
func StaticPartitionCount(w *wf.Workflow, dsID string) int {
	ds := w.Dataset(dsID)
	if ds == nil {
		return 0
	}
	jp := w.Producer(dsID)
	if jp == nil {
		return ds.EstPartitions
	}
	for i := range jp.ReduceGroups {
		g := &jp.ReduceGroups[i]
		if g.Output != dsID {
			continue
		}
		if g.MapOnly() {
			if !jp.AlignMapToInput {
				return 0 // split-based map task count: config-dependent
			}
			max := 0
			for _, in := range jp.Inputs() {
				if n := StaticPartitionCount(w, in); n > max {
					max = n
				}
			}
			return max
		}
		if g.Part.Type == keyval.RangePartition {
			return len(g.Part.SplitPoints) + 1
		}
		if jp.PinnedReducers {
			return jp.Config.NumReduceTasks
		}
		return 0
	}
	return 0
}

// LayoutSatisfiesGrouping reports whether a dataset layout already delivers
// the grouping a reduce function on key fields k2 needs: the data is
// partitioned on a subset of k2 (equal keys co-located) and each partition
// is sorted on a prefix that covers exactly the k2 fields (equal keys
// contiguous). This is the effective precondition of intra-job vertical
// packing for none-to-one subgraphs (Section 3.1, extensions).
func LayoutSatisfiesGrouping(l wf.Layout, k2 []string) bool {
	if len(k2) == 0 || len(l.PartFields) == 0 {
		return false
	}
	if !wf.FieldsSubset(l.PartFields, k2) {
		return false
	}
	covered := map[string]bool{}
	for _, f := range l.SortFields {
		if wf.FieldIndex(k2, f) < 0 {
			break
		}
		covered[f] = true
	}
	for _, f := range k2 {
		if !covered[f] {
			return false
		}
	}
	return true
}

// checkPartitionConstraints verifies that a candidate partition spec for a
// group still satisfies every condition earlier transformations imposed
// (Sections 3.4/3.5: "the new partition function should satisfy all current
// conditions").
func checkPartitionConstraints(g *wf.ReduceGroup, spec keyval.PartitionSpec) error {
	if g.KeyIn == nil {
		if len(g.Constraints) > 0 {
			return fmt.Errorf("constraints present but K2 schema unknown")
		}
		return nil
	}
	partNames := projectNames(g.KeyIn, spec.EffectiveKeyFields(len(g.KeyIn)))
	sortNames := projectNames(g.KeyIn, spec.EffectiveSortFields(len(g.KeyIn)))
	for _, c := range g.Constraints {
		if c.RequireType != nil && spec.Type != *c.RequireType {
			return fmt.Errorf("constraint %q pins partition type %v", c.Reason, *c.RequireType)
		}
		if c.CoGroup != nil && !wf.FieldsSubset(partNames, c.CoGroup) {
			return fmt.Errorf("constraint %q requires partitioning within %v, got %v", c.Reason, c.CoGroup, partNames)
		}
		if len(c.SortPrefix) > 0 {
			if len(sortNames) < len(c.SortPrefix) {
				return fmt.Errorf("constraint %q requires sort prefix %v", c.Reason, c.SortPrefix)
			}
			for i, f := range c.SortPrefix {
				if sortNames[i] != f {
					return fmt.Errorf("constraint %q requires sort prefix %v, got %v", c.Reason, c.SortPrefix, sortNames)
				}
			}
		}
	}
	return nil
}

// groupingPreserved verifies that the spec's per-partition sort keeps the
// group's first grouped stage contiguous.
func groupingPreserved(g *wf.ReduceGroup, spec keyval.PartitionSpec) error {
	var groupFields []int
	found := false
	for _, s := range g.Stages {
		if s.Kind == wf.ReduceKind {
			groupFields = s.GroupFields
			found = true
			break
		}
	}
	if !found {
		return nil // pure map pipeline: any order works
	}
	width := len(g.KeyIn)
	if width == 0 {
		// Unknown key width: only the default full-key spec is safe.
		if spec.SortFields == nil && groupFields == nil {
			return nil
		}
		return fmt.Errorf("cannot verify grouping with unknown K2 schema")
	}
	gf := groupFields
	if gf == nil {
		gf = identityInts(width)
	}
	sf := spec.EffectiveSortFields(width)
	covered := map[int]bool{}
	for _, f := range sf {
		if !containsInt(gf, f) {
			break
		}
		covered[f] = true
	}
	for _, f := range gf {
		if !covered[f] {
			return fmt.Errorf("sort fields %v do not cluster group fields %v", sf, gf)
		}
	}
	return nil
}

// mergeIDs builds the packed job ID, e.g. "J5+J7".
func mergeIDs(ids ...string) string { return strings.Join(ids, "+") }

// mergeOrigins unions origin lists preserving order.
func mergeOrigins(jobs ...*wf.Job) []string {
	var out []string
	seen := map[string]bool{}
	for _, j := range jobs {
		for _, o := range j.Origin {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

func projectNames(schema []string, idx []int) []string {
	out := make([]string, 0, len(idx))
	for _, i := range idx {
		if i >= 0 && i < len(schema) {
			out = append(out, schema[i])
		}
	}
	return out
}

func identityInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// singleGroup returns the job's only reduce group, or an error if the job
// is multi-tag (horizontally packed jobs are excluded from vertical
// packing: their combined K2 breaks the flow-unchanged precondition, which
// is also why Stubby orders Vertical before Horizontal — Section 4).
func singleGroup(j *wf.Job) (*wf.ReduceGroup, error) {
	if len(j.ReduceGroups) != 1 {
		return nil, fmt.Errorf("job %s has %d reduce groups; vertical packing requires one", j.ID, len(j.ReduceGroups))
	}
	return &j.ReduceGroups[0], nil
}
