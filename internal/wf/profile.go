package wf

import "github.com/stubby-mr/stubby/internal/keyval"

// PipelineProfile is the profile annotation for one pipeline (the map side
// of a branch or the reduce side of a group): the paper's two statistic
// families, dataflow statistics (record/byte distributions through the
// phases) and cost statistics (time spent per phase), reduced to the
// per-record rates the What-if engine consumes (Sections 2.2 and 5).
//
// A PipelineProfile is write-once: it is populated by the profiler or by a
// packing adjustment (package profile's Compose/Adjust helpers, which build
// fresh values) and must never be mutated after being attached to a job.
// JobProfile.Clone relies on that to share pipeline profiles across plan
// clones — configuration search clones plans thousands of times, and
// copying key-sample reservoirs each time would dominate its allocation
// profile — and pointer-keyed memoizers (sample digests, equi-depth split
// points, fingerprint hashers) rely on it to hit across clones.
type PipelineProfile struct {
	// Selectivity is output records per input record for the whole
	// pipeline (the paper's "record selectivity").
	Selectivity float64
	// CPUPerRecord is estimated seconds of compute per input record.
	CPUPerRecord float64
	// OutBytesPerRecord is the average encoded size of an output record.
	OutBytesPerRecord float64
	// InBytesPerRecord is the average encoded size of an input record.
	InBytesPerRecord float64
	// GroupsPerRecord, for reduce-side pipelines, is reduce groups per
	// input record (the reciprocal of the mean group size).
	GroupsPerRecord float64
	// GroupsPerMapRecord, for reduce-side pipelines, is distinct reduce
	// groups per pre-combine map-output record — the key-cardinality rate
	// the What-if engine needs to model combiner effectiveness at
	// arbitrary task granularities.
	GroupsPerMapRecord float64
	// CombineReduction is records surviving the combiner per record in
	// (1 = combiner does not help). Only meaningful where a combiner is
	// defined.
	CombineReduction float64
	// KeySample is a deterministic reservoir sample of this pipeline's
	// output keys: for map-side pipelines these are map-output keys, used
	// for range split points and reduce-skew estimation.
	KeySample []keyval.Tuple
}

// Clone deep-copies the profile.
func (p *PipelineProfile) Clone() *PipelineProfile {
	if p == nil {
		return nil
	}
	out := *p
	if p.KeySample != nil {
		out.KeySample = make([]keyval.Tuple, len(p.KeySample))
		for i, k := range p.KeySample {
			out.KeySample[i] = keyval.Clone(k)
		}
	}
	return &out
}

// JobProfile is the profile annotation of a whole job, keyed by branch and
// group tags. A nil JobProfile means no profile annotation is available and
// cost estimation must fall back to the simpler #jobs model (Section 5).
type JobProfile struct {
	// MapSide holds per-branch map pipeline statistics, keyed by tag.
	// For multi-input tags (join), keyed by branch input dataset via
	// MapSideByInput instead when inputs differ.
	MapSide map[int]*PipelineProfile
	// MapSideByInput refines MapSide for tags with several input branches:
	// statistics per (tag, input dataset).
	MapSideByInput map[string]*PipelineProfile
	// ReduceSide holds per-group reduce pipeline statistics, keyed by tag.
	ReduceSide map[int]*PipelineProfile
}

// Clone copies the job profile. The maps are copied (Set*Profile mutates
// them), but the pipeline profiles themselves are shared: they are
// write-once (see PipelineProfile), so clones alias the same statistics and
// key samples.
func (p *JobProfile) Clone() *JobProfile {
	if p == nil {
		return nil
	}
	out := &JobProfile{}
	if p.MapSide != nil {
		out.MapSide = make(map[int]*PipelineProfile, len(p.MapSide))
		for k, v := range p.MapSide {
			out.MapSide[k] = v
		}
	}
	if p.MapSideByInput != nil {
		out.MapSideByInput = make(map[string]*PipelineProfile, len(p.MapSideByInput))
		for k, v := range p.MapSideByInput {
			out.MapSideByInput[k] = v
		}
	}
	if p.ReduceSide != nil {
		out.ReduceSide = make(map[int]*PipelineProfile, len(p.ReduceSide))
		for k, v := range p.ReduceSide {
			out.ReduceSide[k] = v
		}
	}
	return out
}

// MapProfile returns the map-side profile for a branch, preferring the
// per-input refinement. Returns nil if unknown.
func (p *JobProfile) MapProfile(b MapBranch) *PipelineProfile {
	if p == nil {
		return nil
	}
	if pp, ok := p.MapSideByInput[branchKey(b.Tag, b.Input)]; ok {
		return pp
	}
	return p.MapSide[b.Tag]
}

// ReduceProfile returns the reduce-side profile for a group tag, or nil.
func (p *JobProfile) ReduceProfile(tag int) *PipelineProfile {
	if p == nil {
		return nil
	}
	return p.ReduceSide[tag]
}

// SetMapProfile records the map-side profile for (tag, input).
func (p *JobProfile) SetMapProfile(tag int, input string, pp *PipelineProfile) {
	if p.MapSide == nil {
		p.MapSide = make(map[int]*PipelineProfile)
	}
	if p.MapSideByInput == nil {
		p.MapSideByInput = make(map[string]*PipelineProfile)
	}
	p.MapSide[tag] = pp
	p.MapSideByInput[branchKey(tag, input)] = pp
}

// SetReduceProfile records the reduce-side profile for a tag.
func (p *JobProfile) SetReduceProfile(tag int, pp *PipelineProfile) {
	if p.ReduceSide == nil {
		p.ReduceSide = make(map[int]*PipelineProfile)
	}
	p.ReduceSide[tag] = pp
}

func branchKey(tag int, input string) string {
	return input + "#" + itoa(tag)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
