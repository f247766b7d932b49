package wf

import (
	"fmt"
	"sort"
	"strings"

	"github.com/stubby-mr/stubby/internal/keyval"
)

// Job is one MapReduce job vertex: J = <p, c, a> in the paper — the program
// (branches and groups), the configuration, and annotations (schemas and
// filters live on branches/groups; the profile annotation lives here).
type Job struct {
	// ID uniquely names the job within its workflow.
	ID string
	// MapBranches are the map-side pipelines, one per (tag, input).
	MapBranches []MapBranch
	// ReduceGroups are the reduce-side pipelines, one per tag.
	ReduceGroups []ReduceGroup
	// Config is the job configuration.
	Config Config
	// Profile is the profile annotation; nil if unavailable.
	Profile *JobProfile
	// AlignMapToInput forces one map task per input partition consuming it
	// in order — the configuration condition imposed on the consumer job
	// by intra-job vertical packing (Section 3.1, postcondition 2).
	AlignMapToInput bool
	// ReduceCountGroup, when non-empty, ties this job's NumReduceTasks to
	// every other job sharing the label — the many-to-one vertical packing
	// postcondition that all producers partition identically. Configuration
	// search treats tied jobs as one degree of freedom.
	ReduceCountGroup string
	// PinnedReducers freezes NumReduceTasks: a packing postcondition tied
	// it to a base dataset's partition count, so neither configuration
	// search nor rule-based tuning may change it.
	PinnedReducers bool
	// Origin lists the original job IDs packed into this job, for
	// reporting. An untransformed job lists itself.
	Origin []string
}

// MapOnly reports whether every group of the job is map-only: the job runs
// no reduce tasks.
func (j *Job) MapOnly() bool { return j.NumReduceTasks() == 0 }

// NumReduceTasks returns how many reduce tasks the job runs: the most
// partitions any shuffling group needs under the job's configuration (a
// range group is pinned to its split points), or 0 for a map-only job.
func (j *Job) NumReduceTasks() int {
	n := 0
	for i := range j.ReduceGroups {
		if g := &j.ReduceGroups[i]; !g.MapOnly() {
			n = max(n, g.Part.NumPartitions(j.Config.NumReduceTasks))
		}
	}
	return n
}

// HasCombiner reports whether any shuffling group of the job defines a
// combiner.
func (j *Job) HasCombiner() bool {
	for _, g := range j.ReduceGroups {
		if !g.MapOnly() && g.Combiner != nil {
			return true
		}
	}
	return false
}

// Inputs returns the distinct dataset IDs the job reads, in first-use order.
func (j *Job) Inputs() []string {
	var out []string
	seen := map[string]bool{}
	for _, b := range j.MapBranches {
		if !seen[b.Input] {
			seen[b.Input] = true
			out = append(out, b.Input)
		}
	}
	return out
}

// Outputs returns the distinct dataset IDs the job writes, in group order.
func (j *Job) Outputs() []string {
	var out []string
	seen := map[string]bool{}
	for _, g := range j.ReduceGroups {
		if !seen[g.Output] {
			seen[g.Output] = true
			out = append(out, g.Output)
		}
	}
	return out
}

// Group returns the reduce group with the given tag, or nil.
func (j *Job) Group(tag int) *ReduceGroup {
	for i := range j.ReduceGroups {
		if j.ReduceGroups[i].Tag == tag {
			return &j.ReduceGroups[i]
		}
	}
	return nil
}

// Clone copies the job for an independent edit: branches, groups,
// configuration, profile maps and origins are copied. Two write-once parts
// are shared: the pipeline profiles (see PipelineProfile) and the groups'
// range split points (see ReduceGroup.Clone).
func (j *Job) Clone() *Job {
	out := &Job{
		ID:               j.ID,
		Config:           j.Config,
		Profile:          j.Profile.Clone(),
		AlignMapToInput:  j.AlignMapToInput,
		ReduceCountGroup: j.ReduceCountGroup,
		PinnedReducers:   j.PinnedReducers,
		Origin:           cloneStrings(j.Origin),
	}
	out.MapBranches = make([]MapBranch, len(j.MapBranches))
	for i, b := range j.MapBranches {
		out.MapBranches[i] = b.Clone()
	}
	out.ReduceGroups = make([]ReduceGroup, len(j.ReduceGroups))
	for i, g := range j.ReduceGroups {
		out.ReduceGroups[i] = g.Clone()
	}
	return out
}

// Layout is the physical-design portion of a dataset annotation: how the
// dataset is partitioned, ordered, and compressed on the DFS (Section 2.1).
type Layout struct {
	// PartType is how the partitions were produced.
	PartType keyval.PartitionType
	// PartFields are the field names the data is partitioned on; nil means
	// unknown or unpartitioned.
	PartFields []string
	// SortFields are the per-partition sort field names; nil means unknown
	// or unsorted.
	SortFields []string
	// SplitPoints are range boundaries for range-partitioned data. A
	// derived layout shares them with the partition spec or input layout it
	// came from, and Clone shares them too, so they are never written in
	// place: replace the slice (keyval.PartitionSpec.Clone is the one
	// independent copy of a spec's).
	SplitPoints []keyval.Tuple
	// Compressed marks on-disk compression.
	Compressed bool
}

// Clone copies the layout's field name lists and shares its split points,
// which are never written in place.
func (l Layout) Clone() Layout {
	out := l
	out.PartFields = cloneStrings(l.PartFields)
	out.SortFields = cloneStrings(l.SortFields)
	return out
}

func (l Layout) String() string {
	var parts []string
	if len(l.PartFields) > 0 {
		parts = append(parts, fmt.Sprintf("%s(%s)", l.PartType, strings.Join(l.PartFields, ",")))
	}
	if len(l.SortFields) > 0 {
		parts = append(parts, "sort("+strings.Join(l.SortFields, ",")+")")
	}
	if l.Compressed {
		parts = append(parts, "compressed")
	}
	if len(parts) == 0 {
		return "unspecified"
	}
	return strings.Join(parts, " ")
}

// Dataset is one dataset vertex: D = <d, l, a> — the DFS descriptor (ID),
// layout, and dataset annotations (schema names and size estimates).
type Dataset struct {
	// ID uniquely names the dataset within its workflow.
	ID string
	// Base marks workflow input datasets that exist before execution.
	Base bool
	// Layout is the known physical design; for intermediate datasets it is
	// derived from the producing job by the optimizer and the runtime.
	Layout Layout
	// KeyFields/ValueFields name the record fields (dataset schema
	// annotation); nil means unknown.
	KeyFields, ValueFields []string
	// EstRecords/EstBytes are size annotations used for costing, in
	// materialized records and bytes (the simulator's virtual scale is
	// applied at costing time). Zero means unknown.
	EstRecords float64
	EstBytes   float64
	// EstPartitions is the known/estimated partition count (file count) of
	// the dataset on the DFS; zero means unknown.
	EstPartitions int
}

// Clone copies the dataset, its layout (see Layout.Clone: split points are
// shared) and its schema name lists.
func (d *Dataset) Clone() *Dataset {
	out := *d
	out.Layout = d.Layout.Clone()
	out.KeyFields = cloneStrings(d.KeyFields)
	out.ValueFields = cloneStrings(d.ValueFields)
	return &out
}

// Workflow is the plan: the DAG G_W plus all annotations.
type Workflow struct {
	// Name labels the workflow for reporting.
	Name string
	// Jobs and Datasets are the DAG vertices. Edges are implied by job
	// branch inputs and group outputs.
	Jobs     []*Job
	Datasets []*Dataset
}

// Job returns the job with the given ID, or nil.
func (w *Workflow) Job(id string) *Job {
	for _, j := range w.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Dataset returns the dataset with the given ID, or nil.
func (w *Workflow) Dataset(id string) *Dataset {
	for _, d := range w.Datasets {
		if d.ID == id {
			return d
		}
	}
	return nil
}

// Producer returns the job writing the dataset, or nil for base datasets.
func (w *Workflow) Producer(dsID string) *Job {
	for _, j := range w.Jobs {
		for _, out := range j.Outputs() {
			if out == dsID {
				return j
			}
		}
	}
	return nil
}

// Consumers returns the jobs reading the dataset, in workflow order.
func (w *Workflow) Consumers(dsID string) []*Job {
	var out []*Job
	for _, j := range w.Jobs {
		for _, in := range j.Inputs() {
			if in == dsID {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// JobProducers returns the distinct jobs whose outputs the given job reads.
func (w *Workflow) JobProducers(j *Job) []*Job {
	var out []*Job
	seen := map[string]bool{}
	for _, in := range j.Inputs() {
		p := w.Producer(in)
		if p != nil && !seen[p.ID] {
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	return out
}

// JobConsumers returns the distinct jobs that read the given job's outputs.
func (w *Workflow) JobConsumers(j *Job) []*Job {
	var out []*Job
	seen := map[string]bool{}
	for _, ds := range j.Outputs() {
		for _, c := range w.Consumers(ds) {
			if !seen[c.ID] {
				seen[c.ID] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// SinkDatasets returns datasets no job consumes (the workflow results),
// sorted by ID for determinism.
func (w *Workflow) SinkDatasets() []*Dataset {
	var out []*Dataset
	for _, d := range w.Datasets {
		if len(w.Consumers(d.ID)) == 0 && w.Producer(d.ID) != nil {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TopoSort returns the jobs in a topological order of the DAG, or an error
// if the graph has a cycle.
func (w *Workflow) TopoSort() ([]*Job, error) {
	indeg := make(map[string]int, len(w.Jobs))
	for _, j := range w.Jobs {
		indeg[j.ID] = len(w.JobProducers(j))
	}
	var ready []*Job
	for _, j := range w.Jobs {
		if indeg[j.ID] == 0 {
			ready = append(ready, j)
		}
	}
	var order []*Job
	for len(ready) > 0 {
		j := ready[0]
		ready = ready[1:]
		order = append(order, j)
		for _, c := range w.JobConsumers(j) {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != len(w.Jobs) {
		return nil, fmt.Errorf("wf: workflow %q has a cycle", w.Name)
	}
	return order, nil
}

// Validate checks structural invariants: unique IDs, resolvable dataset
// references, base datasets without producers, exactly one producer per
// intermediate dataset, tags consistent between branches and groups, valid
// configs and partition specs, and an acyclic graph.
func (w *Workflow) Validate() error {
	jobIDs := map[string]bool{}
	for _, j := range w.Jobs {
		if jobIDs[j.ID] {
			return fmt.Errorf("wf: duplicate job ID %q", j.ID)
		}
		jobIDs[j.ID] = true
	}
	dsIDs := map[string]bool{}
	for _, d := range w.Datasets {
		if dsIDs[d.ID] {
			return fmt.Errorf("wf: duplicate dataset ID %q", d.ID)
		}
		dsIDs[d.ID] = true
	}
	producers := map[string]string{}
	for _, j := range w.Jobs {
		if len(j.MapBranches) == 0 {
			return fmt.Errorf("wf: job %q has no map branches", j.ID)
		}
		if err := j.Config.Validate(); err != nil {
			return fmt.Errorf("wf: job %q: %w", j.ID, err)
		}
		groupTags := map[int]bool{}
		for _, g := range j.ReduceGroups {
			if groupTags[g.Tag] {
				return fmt.Errorf("wf: job %q has duplicate group tag %d", j.ID, g.Tag)
			}
			groupTags[g.Tag] = true
			if !dsIDs[g.Output] {
				return fmt.Errorf("wf: job %q writes unknown dataset %q", j.ID, g.Output)
			}
			if prev, ok := producers[g.Output]; ok && prev != j.ID {
				return fmt.Errorf("wf: dataset %q has two producers: %q and %q", g.Output, prev, j.ID)
			}
			producers[g.Output] = j.ID
			if err := g.Part.Validate(); err != nil {
				return fmt.Errorf("wf: job %q group %d: %w", j.ID, g.Tag, err)
			}
			for _, s := range g.Stages {
				if err := validateStage(s); err != nil {
					return fmt.Errorf("wf: job %q group %d: %w", j.ID, g.Tag, err)
				}
			}
		}
		for _, b := range j.MapBranches {
			if !dsIDs[b.Input] {
				return fmt.Errorf("wf: job %q reads unknown dataset %q", j.ID, b.Input)
			}
			if !groupTags[b.Tag] {
				return fmt.Errorf("wf: job %q branch tag %d has no reduce group", j.ID, b.Tag)
			}
			for _, s := range b.Stages {
				if err := validateStage(s); err != nil {
					return fmt.Errorf("wf: job %q branch %d: %w", j.ID, b.Tag, err)
				}
			}
		}
	}
	for _, d := range w.Datasets {
		prod := producers[d.ID]
		if d.Base && prod != "" {
			return fmt.Errorf("wf: base dataset %q has producer %q", d.ID, prod)
		}
		if !d.Base && prod == "" {
			return fmt.Errorf("wf: intermediate dataset %q has no producer", d.ID)
		}
	}
	if _, err := w.TopoSort(); err != nil {
		return err
	}
	return nil
}

func validateStage(s Stage) error {
	switch s.Kind {
	case MapKind:
		if s.Map == nil {
			return fmt.Errorf("map stage %q has nil function", s.Name)
		}
	case ReduceKind:
		if s.Reduce == nil {
			return fmt.Errorf("reduce stage %q has nil function", s.Name)
		}
	default:
		return fmt.Errorf("stage %q has unknown kind %d", s.Name, int(s.Kind))
	}
	if s.CPUPerRecord < 0 {
		return fmt.Errorf("stage %q has negative CPU cost", s.Name)
	}
	return nil
}

// Clone copies the workflow for an independent edit: every job and dataset
// is copied (Job.Clone, Dataset.Clone). Only the write-once parts are
// shared with the original: pipeline profiles and range split points.
func (w *Workflow) Clone() *Workflow {
	out := &Workflow{Name: w.Name}
	out.Jobs = make([]*Job, len(w.Jobs))
	for i, j := range w.Jobs {
		out.Jobs[i] = j.Clone()
	}
	out.Datasets = make([]*Dataset, len(w.Datasets))
	for i, d := range w.Datasets {
		out.Datasets[i] = d.Clone()
	}
	return out
}

// RemoveJob deletes a job by ID. Dangling datasets are left in place; use
// GC to drop unreferenced intermediates.
func (w *Workflow) RemoveJob(id string) {
	for i, j := range w.Jobs {
		if j.ID == id {
			w.Jobs = append(w.Jobs[:i], w.Jobs[i+1:]...)
			return
		}
	}
}

// GC removes intermediate datasets that no longer have a producer or a
// consumer (e.g. after inter-job packing eliminates them).
func (w *Workflow) GC() {
	var kept []*Dataset
	for _, d := range w.Datasets {
		if d.Base || w.Producer(d.ID) != nil || len(w.Consumers(d.ID)) > 0 {
			kept = append(kept, d)
		}
	}
	w.Datasets = kept
}

// Summary renders a one-line-per-job description for logs and examples.
func (w *Workflow) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %s: %d jobs, %d datasets\n", w.Name, len(w.Jobs), len(w.Datasets))
	order, err := w.TopoSort()
	if err != nil {
		order = w.Jobs
	}
	for _, j := range order {
		kind := "map+reduce"
		if j.MapOnly() {
			kind = "map-only"
		}
		fmt.Fprintf(&b, "  %-8s %-10s in=%v out=%v branches=%d groups=%d origin=%v\n",
			j.ID, kind, j.Inputs(), j.Outputs(), len(j.MapBranches), len(j.ReduceGroups), j.Origin)
	}
	return b.String()
}
