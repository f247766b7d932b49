package wf

import "github.com/stubby-mr/stubby/internal/keyval"

// The What-if engine derives an output layout for every flow card, so these
// functions allocate only the name lists they return: split points are
// shared with the spec or input layout they come from (see
// Layout.SplitPoints).

// DeriveGroupOutputLayout infers the physical layout of the dataset a
// reduce group writes, from the group's partition spec, schema annotations,
// and the job configuration. The inference is annotation-sound: partition
// and sort field names are claimed only when those names flow unchanged
// into the group's output key (same-name semantics of Section 2.2).
// Unknown schemas (nil) yield an unclaimed layout.
func DeriveGroupOutputLayout(g ReduceGroup, cfg Config) Layout {
	layout := Layout{Compressed: cfg.CompressOutput, PartType: g.Part.Type}
	if g.KeyIn == nil {
		return layout
	}
	// Partition fields: the K2 names the spec partitions on, kept only if
	// they all survive into K3.
	if pf := survivingKeyIn(g.KeyIn, g.KeyOut, g.Part.KeyFields, true); pf != nil {
		layout.PartFields = pf
		if g.Part.Type == keyval.RangePartition {
			layout.SplitPoints = g.Part.SplitPoints
		}
	}
	// Sort fields: reduce tasks emit groups in per-partition sort order, so
	// the output is clustered on the longest prefix of the sort names that
	// survives into K3.
	layout.SortFields = survivingKeyIn(g.KeyIn, g.KeyOut, g.Part.SortFields, false)
	return layout
}

// survivingKeyIn returns the longest prefix of the K2 names a spec field
// list selects (nil selects every field, in order) whose names survive into
// K3; with whole set, all of them or nothing. It returns nil for an empty
// prefix, and when an index is past the end of K2.
func survivingKeyIn(keyIn, keyOut []string, fields []int, whole bool) []string {
	n := len(fields)
	if fields == nil {
		n = len(keyIn)
	}
	k := n
	for j := 0; j < n; j++ {
		i := fieldAt(fields, j)
		if i >= len(keyIn) {
			return nil
		}
		if k == n && FieldIndex(keyOut, keyIn[i]) < 0 {
			k = j
		}
	}
	if k == 0 || whole && k < n {
		return nil
	}
	out := make([]string, k)
	for j := range out {
		out[j] = keyIn[fieldAt(fields, j)]
	}
	return out
}

// fieldAt is the j-th index of a spec field list, nil meaning the identity.
func fieldAt(fields []int, j int) int {
	if fields == nil {
		return j
	}
	return fields[j]
}

// DeriveMapOnlyOutputLayout infers the layout of a map-only group's output
// from the input dataset's layout: ordering and partitioning survive a
// map-only pass only for field names that flow unchanged into the group
// output, and co-grouped partitioning survives only when map tasks are
// aligned one-to-one with input partitions (splitting a partition breaks
// co-location of equal keys).
func DeriveMapOnlyOutputLayout(in Layout, g ReduceGroup, aligned bool, cfg Config) Layout {
	layout := Layout{Compressed: cfg.CompressOutput}
	if g.KeyOut == nil {
		return layout
	}
	if aligned && len(in.PartFields) > 0 && FieldsSubset(in.PartFields, g.KeyOut) {
		layout.PartType = in.PartType
		layout.PartFields = cloneStrings(in.PartFields)
		if in.PartType == keyval.RangePartition {
			layout.SplitPoints = in.SplitPoints
		}
	}
	for _, f := range in.SortFields {
		if FieldIndex(g.KeyOut, f) < 0 {
			break
		}
		layout.SortFields = append(layout.SortFields, f)
	}
	return layout
}
