package optimizer

import (
	"fmt"
	"slices"
	"strings"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
)

// row is one line of the transformation table: a structural transformation
// and the groups whose traversal phases it takes part in.
type row struct {
	Transformation
	groups Groups
}

// newTable declares every structural transformation once, in enumeration
// order — which is load-bearing: it decides MaxSubplans truncation, cost
// tie-breaks and the Desc strings of the event stream. A comparator is a
// selection of rows: Options.Groups keeps the rows of the selected groups
// (GroupConfigOnly selects none) and DisablePartition drops the partition row.
func newTable(cluster *mrsim.Cluster, opt Options) []row {
	rows := []row{
		{packing{"intra-vertical", singles((*wf.Workflow).JobProducers),
			func(p *wf.Workflow, j []string) (*wf.Workflow, error) { return trans.IntraVertical(p, j[0]) }}, GroupVertical},
		{packing{"inter-vertical", pairs,
			func(p *wf.Workflow, j []string) (*wf.Workflow, error) { return trans.InterVertical(p, j[0], j[1]) }}, GroupVertical},
		{packing{"inter-vertical-replicate", singles((*wf.Workflow).JobConsumers),
			func(p *wf.Workflow, j []string) (*wf.Workflow, error) { return trans.InterVerticalReplicate(p, j[0]) }}, GroupVertical},
		// One-to-many extension (ii): pack the map-only producer with one
		// consumer, keeping its output materialized for the others.
		{packing{"inter-vertical-keep", pairs,
			func(p *wf.Workflow, j []string) (*wf.Workflow, error) { return trans.InterVerticalKeep(p, j[0], j[1]) }}, GroupVertical},
		// Same-input sibling groups, plus the concurrently-runnable
		// extension over the whole unit.
		{packing{"horizontal", horizontalGroups,
			func(p *wf.Workflow, j []string) (*wf.Workflow, error) { return trans.Horizontal(p, j, false) }}, GroupHorizontal},
	}
	// Partition function transformations belong to both structural groups
	// (Section 4).
	if !opt.DisablePartition {
		rows = append(rows, row{partition{cluster, trans.NewSplitMemo()}, GroupAll})
	}
	for _, tr := range opt.Custom {
		rows = append(rows, row{custom{tr}, GroupAll})
	}
	return slices.DeleteFunc(rows, func(r row) bool { return r.groups&opt.Groups == 0 })
}

// packing is a built-in packing transformation: candidates lists the job
// groups to try within the unit and pack tries one. Every transformation
// checks its own precondition and returns an error when it does not hold, so
// an inapplicable candidate is skipped on that error; the precondition is not
// evaluated a second time here.
type packing struct {
	name       string
	candidates func(plan *wf.Workflow, unitJobs []string) [][]string
	pack       func(plan *wf.Workflow, jobs []string) (*wf.Workflow, error)
}

func (t packing) Name() string { return t.name }

func (t packing) Apply(plan *wf.Workflow, unitJobs []string) (out []Proposal) {
	for _, jobs := range t.candidates(plan, unitJobs) {
		if p, err := t.pack(plan, jobs); err == nil {
			out = append(out, Proposal{Plan: p, Desc: t.name + "(" + strings.Join(jobs, ",") + ")"})
		}
	}
	return out
}

// singles proposes each unit job whose neighbors on one side (its producers
// or its consumers) all lie in the unit; a neighbor that records no Origin
// belongs to no unit and constrains none.
func singles(side func(*wf.Workflow, *wf.Job) []*wf.Job) func(*wf.Workflow, []string) [][]string {
	return func(plan *wf.Workflow, unitJobs []string) (out [][]string) {
		outside := func(j *wf.Job) bool { return len(j.Origin) > 0 && !slices.Contains(unitJobs, j.ID) }
		for _, id := range unitJobs {
			if !slices.ContainsFunc(side(plan, plan.Job(id)), outside) {
				out = append(out, []string{id})
			}
		}
		return out
	}
}

// pairs proposes every ordered (producer, consumer) pair of unit jobs.
func pairs(_ *wf.Workflow, unitJobs []string) (out [][]string) {
	for _, jp := range unitJobs {
		for _, jc := range unitJobs {
			if jp != jc {
				out = append(out, []string{jp, jc})
			}
		}
	}
	return out
}

// partition proposes every enumerated partition spec of every reduce group in
// the unit, sized for the cluster's reduce slots. The row is built once per
// optimizer, so its split-point memo lives exactly as long as one search.
type partition struct {
	cluster *mrsim.Cluster
	splits  *trans.SplitMemo
}

func (partition) Name() string { return "partition" }

func (t partition) Apply(plan *wf.Workflow, unitJobs []string) (out []Proposal) {
	for _, id := range unitJobs {
		for _, g := range plan.Job(id).ReduceGroups {
			for _, spec := range t.splits.EnumeratePartitionSpecs(plan, id, g.Tag, t.cluster.TotalReduceSlots()) {
				if p, err := trans.ApplyPartitionSpec(plan, id, g.Tag, spec); err == nil {
					out = append(out, Proposal{Plan: p, Desc: fmt.Sprintf("partition(%s#%d:%s)", id, g.Tag, spec.Type)})
				}
			}
		}
	}
	return out
}

// custom is a registered Options.Custom transformation. Its proposals
// compete on estimated cost exactly like the built-ins'; nil and structurally
// invalid ones are discarded defensively.
type custom struct{ Transformation }

func (c custom) Name() string { return "custom:" + c.Transformation.Name() }

func (c custom) Apply(plan *wf.Workflow, unitJobs []string) (out []Proposal) {
	for _, prop := range c.Transformation.Apply(plan, slices.Clone(unitJobs)) {
		if prop.Plan == nil || prop.Plan.Validate() != nil {
			continue
		}
		if prop.Desc == "" {
			prop.Desc = c.Transformation.Name()
		}
		out = append(out, Proposal{Plan: prop.Plan, Desc: "custom:" + prop.Desc})
	}
	return out
}
