package profile

import "github.com/stubby-mr/stubby/internal/wf"

// Adjustment of profile annotations for packing transformations
// (Section 5): "the new map-task record selectivity is calculated as the
// product of the record selectivities of the old map and reduce functions
// ... the CPU cost of the new map task is calculated as the sum of the CPU
// costs of the old functions" — generalized here to arbitrary pipeline
// composition, with downstream CPU weighted by upstream selectivity
// (cardinality-estimation style).

// ComposeSerial derives the profile of a pipeline formed by running `b`
// immediately after `a` (a's outputs are b's inputs). Either input may be
// nil, meaning "unknown": the result is then nil too, because a packed
// pipeline's statistics cannot be derived from partial information.
func ComposeSerial(a, b *wf.PipelineProfile) *wf.PipelineProfile {
	if a == nil || b == nil {
		return nil
	}
	out := &wf.PipelineProfile{
		Selectivity:       a.Selectivity * b.Selectivity,
		CPUPerRecord:      a.CPUPerRecord + a.Selectivity*b.CPUPerRecord,
		InBytesPerRecord:  a.InBytesPerRecord,
		OutBytesPerRecord: b.OutBytesPerRecord,
		// Grouping density is set by the first grouped stage, i.e. a's.
		GroupsPerRecord:    a.GroupsPerRecord,
		GroupsPerMapRecord: a.GroupsPerMapRecord,
		// The combiner, if any, still belongs to the upstream job's map
		// output; keep its observed reduction.
		CombineReduction: a.CombineReduction,
	}
	if out.CombineReduction == 0 {
		out.CombineReduction = 1
	}
	// The composed pipeline emits b's keys: downstream decisions (split
	// points, skew) should see b's sample. Samples are immutable once
	// attached (see wf.PipelineProfile), so the composed profile shares
	// the backing slice.
	if b.KeySample != nil {
		out.KeySample = b.KeySample
	} else if a.KeySample != nil {
		out.KeySample = a.KeySample
	}
	return out
}

// AdjustInterVerticalIntoReduce derives the producer's new reduce-side
// profile after inter-job vertical packing appends a map-only consumer's
// map pipeline to the producer's reduce pipeline.
func AdjustInterVerticalIntoReduce(producerReduce, consumerMap *wf.PipelineProfile) *wf.PipelineProfile {
	return ComposeSerial(producerReduce, consumerMap)
}

// AdjustInterVerticalIntoMap derives the consumer's new map-side profile
// after inter-job vertical packing prepends a map-only producer's map
// pipeline to the consumer's map pipeline.
func AdjustInterVerticalIntoMap(producerMap, consumerMap *wf.PipelineProfile) *wf.PipelineProfile {
	return ComposeSerial(producerMap, consumerMap)
}

// MergeHorizontal builds the profile of a horizontally packed job from the
// profiles of the original jobs, renumbered by the tag mapping:
// tagOf[jobID] gives the offset added to each original tag. Jobs without
// profiles yield a nil (unknown) merged profile.
func MergeHorizontal(jobs []*wf.Job, tagOf map[string]int) *wf.JobProfile {
	out := &wf.JobProfile{}
	for _, j := range jobs {
		if j.Profile == nil {
			return nil
		}
		offset := tagOf[j.ID]
		for i := range j.MapBranches {
			b := j.MapBranches[i]
			mp := j.Profile.MapProfile(b)
			if mp == nil {
				return nil
			}
			out.SetMapProfile(b.Tag+offset, b.Input, mp.Clone())
		}
		for i := range j.ReduceGroups {
			g := j.ReduceGroups[i]
			if g.MapOnly() {
				continue
			}
			rp := j.Profile.ReduceProfile(g.Tag)
			if rp == nil {
				return nil
			}
			out.SetReduceProfile(g.Tag+offset, rp.Clone())
		}
	}
	return out
}
