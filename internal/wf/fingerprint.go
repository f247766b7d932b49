package wf

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"github.com/stubby-mr/stubby/internal/keyval"
)

// Fingerprint is a 128-bit canonical digest of a workflow: everything a
// What-if estimate depends on — DAG structure, per-job programs and
// configurations, partition specs, profile annotations, dataset layouts and
// size annotations — hashed deterministically. Two workflows with equal
// fingerprints are cost-equivalent: the estimator returns the same answer
// for both (job-for-job by position), so a fingerprint is a sound memo key
// for What-if results.
//
// The fingerprint is insensitive to identity that carries no cost
// information: the workflow Name, job IDs (packing merges synthesize fresh
// IDs for identical structures), Origin bookkeeping, and the iteration
// order of annotation maps. It is deliberately sensitive to slice orderings
// that feed the estimator's arithmetic (job order drives topological
// tie-breaking and slot-pool interleaving; branch order drives
// floating-point summation), so a cached estimate is bit-identical to a
// fresh one.
type Fingerprint [2]uint64

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x%016x", f[0], f[1])
}

// ParseFingerprint reads String's 32 hex digits back into the fingerprint
// they render.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	ok := len(s) == 32
	for i := 0; ok && i < len(f); i++ {
		v, err := strconv.ParseUint(s[16*i:16*i+16], 16, 64)
		f[i], ok = v, err == nil
	}
	if !ok {
		return Fingerprint{}, fmt.Errorf("wf: fingerprint %q is not 32 hex digits", s)
	}
	return f, nil
}

// FingerprintWorkflow digests a workflow with a throwaway Hasher. Callers
// fingerprinting many related plans (an optimizer's configuration search)
// should hold a Hasher to reuse its profile memoization.
func FingerprintWorkflow(w *Workflow) Fingerprint {
	return NewHasher().Workflow(w)
}

// Hasher computes workflow fingerprints, memoizing the expensive, stable
// parts by pointer: a configuration search re-fingerprints the same cloned
// plan hundreds of times while mutating only Config fields, so profile
// digests (key samples are the bulk of the bytes), per-job program digests
// (branches and groups), and dataset digests are computed once per pointer.
// Configurations, job flags, and tie labels are re-hashed on every call and
// may change freely between calls.
//
// A Hasher is not safe for concurrent use, and its memoization assumes
// profiles, branches, groups, and datasets are not mutated in place under a
// pointer it has already seen — the contract everywhere in this repository:
// the profiler builds fresh annotations, transformations Clone() the plan
// before editing, and the configuration search mutates only Config.
type Hasher struct {
	profMemo map[*JobProfile]Fingerprint
	jobMemo  map[*Job]Fingerprint
	dsMemo   map[*Dataset]Fingerprint
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher {
	return &Hasher{
		profMemo: make(map[*JobProfile]Fingerprint),
		jobMemo:  make(map[*Job]Fingerprint),
		dsMemo:   make(map[*Dataset]Fingerprint),
	}
}

// Workflow digests w. The workflow is read, never modified.
func (h *Hasher) Workflow(w *Workflow) Fingerprint {
	fw := newFPWriter()

	// Datasets, sorted by ID: estimation reads them through maps keyed by
	// ID, so slice order is presentation-only.
	fw.str("wf-fp-v1")
	ids := make([]string, 0, len(w.Datasets))
	byID := make(map[string]*Dataset, len(w.Datasets))
	for _, d := range w.Datasets {
		ids = append(ids, d.ID)
		byID[d.ID] = d
	}
	sort.Strings(ids)
	fw.num(len(ids))
	for _, id := range ids {
		fp := h.dataset(byID[id])
		fw.u64(fp[0])
		fw.u64(fp[1])
	}

	// Jobs in slice order, with IDs and Origin elided. ReduceCountGroup
	// labels are arbitrary strings minted by packing; canonicalize each to
	// the ordinal of its first appearance so renaming a tie label (or the
	// jobs it points at) cannot change the digest while the tie structure
	// itself still does.
	groupOrdinal := map[string]int{}
	for _, j := range w.Jobs {
		if j.ReduceCountGroup != "" {
			if _, ok := groupOrdinal[j.ReduceCountGroup]; !ok {
				groupOrdinal[j.ReduceCountGroup] = len(groupOrdinal)
			}
		}
	}
	fw.num(len(w.Jobs))
	for _, j := range w.Jobs {
		fw.bool(j.AlignMapToInput)
		fw.bool(j.PinnedReducers)
		if j.ReduceCountGroup == "" {
			fw.num(-1)
		} else {
			fw.num(groupOrdinal[j.ReduceCountGroup])
		}
		fw.config(j.Config)
		fp := h.program(j)
		fw.u64(fp[0])
		fw.u64(fp[1])
		fp = h.profile(j.Profile)
		fw.u64(fp[0])
		fw.u64(fp[1])
	}
	return fw.sum()
}

// dataset digests one dataset, memoized by pointer.
func (h *Hasher) dataset(d *Dataset) Fingerprint {
	if fp, ok := h.dsMemo[d]; ok {
		return fp
	}
	fw := newFPWriter()
	fw.str("ds")
	fw.str(d.ID)
	fw.bool(d.Base)
	fw.layout(d.Layout)
	fw.strs(d.KeyFields)
	fw.strs(d.ValueFields)
	fw.f64(d.EstRecords)
	fw.f64(d.EstBytes)
	fw.num(d.EstPartitions)
	fp := fw.sum()
	h.dsMemo[d] = fp
	return fp
}

// program digests a job's branches and groups — the parts the search never
// mutates in place — memoized by job pointer. Config, flags, and tie labels
// live outside the memo so the caller re-hashes them every time.
func (h *Hasher) program(j *Job) Fingerprint {
	if fp, ok := h.jobMemo[j]; ok {
		return fp
	}
	fw := newFPWriter()
	fw.str("job")
	fw.num(len(j.MapBranches))
	for i := range j.MapBranches {
		fw.branch(&j.MapBranches[i], true)
	}
	fw.num(len(j.ReduceGroups))
	for i := range j.ReduceGroups {
		fw.group(&j.ReduceGroups[i], true)
	}
	fp := fw.sum()
	h.jobMemo[j] = fp
	return fp
}

// profile digests a job profile, memoized by pointer.
func (h *Hasher) profile(p *JobProfile) Fingerprint {
	if p == nil {
		return Fingerprint{}
	}
	if fp, ok := h.profMemo[p]; ok {
		return fp
	}
	fw := newFPWriter()
	fw.str("prof")
	mapTags := sortedIntKeys(p.MapSide)
	fw.num(len(mapTags))
	for _, tag := range mapTags {
		fw.num(tag)
		fw.pipeline(p.MapSide[tag])
	}
	inputKeys := make([]string, 0, len(p.MapSideByInput))
	for k := range p.MapSideByInput {
		inputKeys = append(inputKeys, k)
	}
	sort.Strings(inputKeys)
	fw.num(len(inputKeys))
	for _, k := range inputKeys {
		fw.str(k)
		fw.pipeline(p.MapSideByInput[k])
	}
	redTags := sortedIntKeys(p.ReduceSide)
	fw.num(len(redTags))
	for _, tag := range redTags {
		fw.num(tag)
		fw.pipeline(p.ReduceSide[tag])
	}
	fp := fw.sum()
	h.profMemo[p] = fp
	return fp
}

func sortedIntKeys(m map[int]*PipelineProfile) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// fpWriter serializes workflow components into an FNV-1a 128 stream with
// unambiguous framing (lengths and type tags), so distinct structures never
// produce the same byte stream.
type fpWriter struct {
	h   hash.Hash
	buf [9]byte
}

func newFPWriter() *fpWriter {
	return &fpWriter{h: fnv.New128a()}
}

func (fw *fpWriter) sum() Fingerprint {
	var out Fingerprint
	s := fw.h.Sum(nil)
	out[0] = binary.BigEndian.Uint64(s[:8])
	out[1] = binary.BigEndian.Uint64(s[8:16])
	return out
}

func (fw *fpWriter) u64(v uint64) {
	fw.buf[0] = 'u'
	binary.BigEndian.PutUint64(fw.buf[1:], v)
	fw.h.Write(fw.buf[:9])
}

func (fw *fpWriter) num(v int) { fw.u64(uint64(int64(v))) }

func (fw *fpWriter) f64(v float64) {
	fw.buf[0] = 'f'
	binary.BigEndian.PutUint64(fw.buf[1:], math.Float64bits(v))
	fw.h.Write(fw.buf[:9])
}

func (fw *fpWriter) bool(v bool) {
	fw.buf[0] = 'b'
	fw.buf[1] = 0
	if v {
		fw.buf[1] = 1
	}
	fw.h.Write(fw.buf[:2])
}

func (fw *fpWriter) str(s string) {
	fw.num(len(s))
	fw.h.Write([]byte(s))
}

func (fw *fpWriter) strs(ss []string) {
	if ss == nil {
		fw.num(-1)
		return
	}
	fw.num(len(ss))
	for _, s := range ss {
		fw.str(s)
	}
}

func (fw *fpWriter) ints(vs []int) {
	if vs == nil {
		fw.num(-1)
		return
	}
	fw.num(len(vs))
	for _, v := range vs {
		fw.num(v)
	}
}

func (fw *fpWriter) tuple(t keyval.Tuple) {
	// keyval.Hash is itself framed (type tags, string terminators), so one
	// projection hash per tuple keeps streams unambiguous and cheap.
	fw.num(len(t))
	fw.u64(keyval.Hash(t, nil))
}

func (fw *fpWriter) tuples(ts []keyval.Tuple) {
	fw.num(len(ts))
	for _, t := range ts {
		fw.tuple(t)
	}
}

func (fw *fpWriter) pipeline(p *PipelineProfile) {
	if p == nil {
		fw.bool(false)
		return
	}
	fw.bool(true)
	fw.f64(p.Selectivity)
	fw.f64(p.CPUPerRecord)
	fw.f64(p.OutBytesPerRecord)
	fw.f64(p.InBytesPerRecord)
	fw.f64(p.GroupsPerRecord)
	fw.f64(p.GroupsPerMapRecord)
	fw.f64(p.CombineReduction)
	fw.tuples(p.KeySample)
}

func (fw *fpWriter) layout(l Layout) {
	fw.num(int(l.PartType))
	fw.strs(l.PartFields)
	fw.strs(l.SortFields)
	fw.tuples(l.SplitPoints)
	fw.bool(l.Compressed)
}

func (fw *fpWriter) config(c Config) {
	fw.num(c.NumReduceTasks)
	fw.num(c.SplitSizeMB)
	fw.num(c.SortBufferMB)
	fw.num(c.IOSortFactor)
	fw.bool(c.UseCombiner)
	fw.bool(c.CompressMapOutput)
	fw.bool(c.CompressOutput)
}

func (fw *fpWriter) stage(s *Stage) {
	fw.str(s.Name)
	fw.num(int(s.Kind))
	fw.ints(s.GroupFields)
	fw.f64(s.CPUPerRecord)
}

func (fw *fpWriter) stages(ss []Stage) {
	fw.num(len(ss))
	for i := range ss {
		fw.stage(&ss[i])
	}
}

// branch hashes one map branch. Sub-plan fingerprints pass named = false to
// elide the Input dataset name — the recursive input sub-fingerprint already
// stands in for it.
func (fw *fpWriter) branch(b *MapBranch, named bool) {
	fw.num(b.Tag)
	if named {
		fw.str(b.Input)
	}
	fw.stages(b.Stages)
	if b.Filter == nil {
		fw.bool(false)
	} else {
		fw.bool(true)
		fw.str(b.Filter.Field)
		fw.tuple(keyval.Tuple{b.Filter.Interval.Lo})
		fw.tuple(keyval.Tuple{b.Filter.Interval.Hi})
	}
	fw.strs(b.KeyIn)
	fw.strs(b.ValIn)
	fw.strs(b.KeyOut)
	fw.strs(b.ValOut)
}

// group hashes one reduce group. Sub-plan fingerprints pass named = false to
// elide the Output dataset name — the root ordinal written after the group
// list stands in for it.
func (fw *fpWriter) group(g *ReduceGroup, named bool) {
	fw.num(g.Tag)
	if named {
		fw.str(g.Output)
	}
	fw.bool(g.RunsMapSide)
	fw.stages(g.Stages)
	if g.Combiner == nil {
		fw.bool(false)
	} else {
		fw.bool(true)
		fw.stage(g.Combiner)
	}
	fw.num(int(g.Part.Type))
	fw.ints(g.Part.KeyFields)
	fw.ints(g.Part.SortFields)
	fw.tuples(g.Part.SplitPoints)
	fw.num(len(g.Constraints))
	for i := range g.Constraints {
		c := &g.Constraints[i]
		fw.strs(c.CoGroup)
		fw.strs(c.SortPrefix)
		if c.RequireType == nil {
			fw.num(-1)
		} else {
			fw.num(int(*c.RequireType))
		}
	}
	fw.strs(g.KeyIn)
	fw.strs(g.ValIn)
	fw.strs(g.KeyOut)
	fw.strs(g.ValOut)
}
