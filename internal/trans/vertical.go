package trans

import (
	"fmt"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
)

// CanIntraVertical checks the preconditions of the intra-job vertical
// packing transformation on consumer job jcID (Section 3.1): a
// one-to-one / none-to-one / many-to-one subgraph where the consumer's
// reduce grouping key flows unchanged from each producer's reduce input to
// the consumer's map output, verified through schema annotations. A nil
// return means the transformation applies.
func CanIntraVertical(w *wf.Workflow, jcID string) error {
	jc := w.Job(jcID)
	if jc == nil {
		return fmt.Errorf("trans: no job %q", jcID)
	}
	if jc.MapOnly() {
		return fmt.Errorf("trans: %s is already map-only", jcID)
	}
	gc, err := singleGroup(jc)
	if err != nil {
		return err
	}
	k2 := gc.KeyIn
	if k2 == nil {
		return fmt.Errorf("trans: %s has no K2 schema annotation", jcID)
	}
	// Jc.K2 must flow unchanged through every map branch of the consumer.
	for i := range jc.MapBranches {
		b := &jc.MapBranches[i]
		if b.KeyIn == nil || b.KeyOut == nil {
			return fmt.Errorf("trans: %s branch on %s lacks schema annotations", jcID, b.Input)
		}
		if !wf.FieldsSubset(k2, b.KeyOut) {
			return fmt.Errorf("trans: K2 %v not produced by %s's map on %s", k2, jcID, b.Input)
		}
		if !wf.FieldsSubset(k2, b.KeyIn) {
			return fmt.Errorf("trans: K2 %v does not flow through %s's map input on %s", k2, jcID, b.Input)
		}
	}
	// Each input must either come pre-grouped (base / map-only producer) or
	// from a producer whose partition function we may rewrite. Aligned map
	// tasks consume co-partitions, so all inputs must end up with the same
	// partition count: inputs with a fixed count (base data, aligned
	// map-only chains, range-partitioned producers) must agree, and free
	// producers get their reducer counts pinned/tied to match (the
	// many-to-one postcondition, Section 3.1 extensions).
	fixedCount := 0
	for _, in := range jc.Inputs() {
		jp := w.Producer(in)
		if jp != nil && !jp.MapOnly() {
			continue
		}
		n := StaticPartitionCount(w, in)
		if n == 0 && len(jc.Inputs()) > 1 {
			return fmt.Errorf("trans: input %s has an unknown partition count; cannot align", in)
		}
		if n > 0 {
			if fixedCount != 0 && fixedCount != n {
				return fmt.Errorf("trans: inputs have mismatched partition counts (%d vs %d)", fixedCount, n)
			}
			fixedCount = n
		}
	}
	for _, in := range jc.Inputs() {
		jp := w.Producer(in)
		if jp == nil || jp.MapOnly() {
			if !LayoutSatisfiesGrouping(StaticLayout(w, in), consumerClusterNames(gc, k2)) {
				return fmt.Errorf("trans: input %s layout does not satisfy grouping on %v", in, consumerClusterNames(gc, k2))
			}
			continue
		}
		if len(w.Consumers(in)) != 1 {
			return fmt.Errorf("trans: dataset %s fans out to multiple consumers", in)
		}
		gp, err := singleGroup(jp)
		if err != nil {
			return err
		}
		if gp.KeyIn == nil || gp.KeyOut == nil {
			return fmt.Errorf("trans: producer %s lacks K2/K3 schema annotations", jp.ID)
		}
		// Flow-unchanged condition: Jc.K2 present in Jp.K2 and Jp.K3.
		if !wf.FieldsSubset(k2, gp.KeyIn) || !wf.FieldsSubset(k2, gp.KeyOut) {
			return fmt.Errorf("trans: K2 %v does not flow through producer %s", k2, jp.ID)
		}
		spec := rewrittenSpec(gp, gc, k2)
		if err := checkPartitionConstraints(gp, spec); err != nil {
			return fmt.Errorf("trans: producer %s: %w", jp.ID, err)
		}
		if err := groupingPreserved(gp, spec); err != nil {
			return fmt.Errorf("trans: producer %s: %w", jp.ID, err)
		}
	}
	if len(jc.Inputs()) > 1 {
		if err := alignedCoPartition(w, jc, k2); err != nil {
			return err
		}
	}
	return nil
}

// alignedCoPartition verifies that the multi-input alignment postcondition
// is achievable: aligned map tasks merge the i-th partition of every
// input, so all inputs must be partitioned by the same function (equal
// K2 groups must land at the same partition index everywhere) and sorted
// with one common K2-covering prefix (so the k-way merge keeps groups
// contiguous). Rewritable producers will be re-partitioned to hash on
// their K2∩k2 projection; fixed inputs (base data, map-only chains) keep
// their existing layout and must already agree. Matching partition counts
// alone — what the count check establishes — is not enough: two range
// partitionings with different split points, or a range input beside a
// hash-rewritten producer, agree on counts yet split K2 groups across
// tasks, silently corrupting the packed job's groupings. (The execution
// oracle over generated workflows caught exactly that.)
func alignedCoPartition(w *wf.Workflow, jc *wf.Job, k2 []string) error {
	type partFn struct {
		typ    keyval.PartitionType
		fields []string
		splits []keyval.Tuple
		prefix []string
	}
	var want *partFn
	merge := func(in string, got partFn) error {
		if len(got.prefix) > len(k2) {
			got.prefix = got.prefix[:len(k2)]
		}
		if want == nil {
			want = &got
			return nil
		}
		switch {
		case got.typ != want.typ:
			return fmt.Errorf("trans: aligned inputs mix %v and %v partitioning", want.typ, got.typ)
		case !wf.FieldsEqual(got.fields, want.fields):
			return fmt.Errorf("trans: input %s partitions on %v, other inputs on %v", in, got.fields, want.fields)
		case len(got.splits) != len(want.splits):
			return fmt.Errorf("trans: input %s has %d range split points, other inputs %d", in, len(got.splits), len(want.splits))
		case !wf.FieldsEqual(got.prefix, want.prefix):
			return fmt.Errorf("trans: input %s sort prefix %v disagrees with %v", in, got.prefix, want.prefix)
		}
		for i := range got.splits {
			if keyval.Compare(got.splits[i], want.splits[i]) != 0 {
				return fmt.Errorf("trans: input %s range split points differ from other inputs", in)
			}
		}
		return nil
	}
	gc := &jc.ReduceGroups[0]
	for _, in := range jc.Inputs() {
		jp := w.Producer(in)
		if jp == nil || jp.MapOnly() {
			l := StaticLayout(w, in)
			if err := merge(in, partFn{typ: l.PartType, fields: l.PartFields, splits: l.SplitPoints, prefix: l.SortFields}); err != nil {
				return err
			}
			continue
		}
		gp := &jp.ReduceGroups[0]
		spec := rewrittenSpec(gp, gc, k2)
		if err := merge(in, partFn{
			typ:    keyval.HashPartition,
			fields: projectNames(gp.KeyIn, spec.KeyFields),
			prefix: projectNames(gp.KeyIn, spec.SortFields),
		}); err != nil {
			return err
		}
	}
	return nil
}

// consumerClusterNames returns the field names the consumer's first
// grouped stage needs co-located and contiguous: its GroupFields projected
// onto K2. A consumer grouping on its whole key (nil GroupFields, or a
// permutation covering K2), one with no grouped stage, or one grouping
// per-stream ([]int{} — no cross-record contract) requires clustering on
// k2 itself, matching the classic postcondition.
func consumerClusterNames(gc *wf.ReduceGroup, k2 []string) []string {
	var gf []int
	found := false
	for _, s := range gc.Stages {
		if s.Kind == wf.ReduceKind {
			gf = s.GroupFields
			found = true
			break
		}
	}
	if !found || gf == nil || len(gf) == 0 {
		return k2
	}
	seen := map[string]bool{}
	names := make([]string, 0, len(gf))
	for _, i := range gf {
		if i < 0 || i >= len(k2) {
			return k2 // unverifiable grouping: fall back to the whole-key requirement
		}
		if !seen[k2[i]] {
			seen[k2[i]] = true
			names = append(names, k2[i])
		}
	}
	return names
}

// rewrittenSpec builds the producer partition spec the intra-vertical
// postcondition prescribes: partition on Jp.K2 ∩ Jc.K2 and sort on
// (∩, rest of Jp.K2) — Figure 4's hash(O), sort(O,Z). When the consumer's
// grouped stage groups on a proper subset of its K2, the spec tightens to
// that subset: partitioning or sorting on the full K2 would scatter one
// consumer group across aligned tasks (different partition indices) or
// interleave its records (sorted on a non-group field first), and the
// packed map-side pipeline would aggregate fragments. (The execution
// oracle over generated workflows caught exactly that.)
func rewrittenSpec(gp, gc *wf.ReduceGroup, k2 []string) keyval.PartitionSpec {
	cluster := consumerClusterNames(gc, k2)
	if wf.FieldsSubset(k2, cluster) {
		// Whole-key grouping: the classic spec.
		inter := wf.FieldsIntersect(gp.KeyIn, k2)
		sortNames := wf.CombinedSortKey(gp.KeyIn, k2)
		partIdx, _ := wf.IndicesOf(gp.KeyIn, inter)
		sortIdx, _ := wf.IndicesOf(gp.KeyIn, sortNames)
		return keyval.PartitionSpec{Type: keyval.HashPartition, KeyFields: partIdx, SortFields: sortIdx}
	}
	sortNames := append(append([]string{}, cluster...), wf.FieldsMinus(wf.CombinedSortKey(gp.KeyIn, k2), cluster)...)
	partIdx, _ := wf.IndicesOf(gp.KeyIn, cluster)
	sortIdx, _ := wf.IndicesOf(gp.KeyIn, sortNames)
	return keyval.PartitionSpec{Type: keyval.HashPartition, KeyFields: partIdx, SortFields: sortIdx}
}

// IntraVertical applies intra-job vertical packing to consumer jcID,
// returning a transformed copy: the consumer becomes a Map-only job whose
// grouped pipeline runs map-side, producers are re-partitioned to satisfy
// both grouping requirements, and the consumer's map tasks are aligned
// one-to-one with input partitions (the configuration postcondition).
func IntraVertical(w *wf.Workflow, jcID string) (*wf.Workflow, error) {
	if err := CanIntraVertical(w, jcID); err != nil {
		return nil, err
	}
	out := w.Clone()
	jc := out.Job(jcID)
	gc := &jc.ReduceGroups[0]
	k2 := gc.KeyIn

	var producers []*wf.Job
	fixedCount := 0
	for _, in := range jc.Inputs() {
		jp := out.Producer(in)
		if jp == nil || jp.MapOnly() {
			if n := StaticPartitionCount(out, in); n > 0 {
				fixedCount = n
			}
			continue
		}
		gp := &jp.ReduceGroups[0]
		spec := rewrittenSpec(gp, gc, k2)
		partNames := projectNames(gp.KeyIn, spec.EffectiveKeyFields(len(gp.KeyIn)))
		gp.Part = spec
		gp.Constraints = append(gp.Constraints, wf.PartitionConstraint{
			CoGroup:    append([]string(nil), partNames...),
			SortPrefix: append([]string(nil), partNames...),
			Reason:     "intra-job vertical packing for " + jcID,
		})
		producers = append(producers, jp)
	}
	// Alignment postcondition: every input must deliver the same partition
	// count. Inputs with fixed counts (base data, aligned map-only chains)
	// pin the free producers' reducer counts; otherwise the producers are
	// tied to one shared degree of freedom (many-to-one extension).
	if fixedCount > 0 {
		for _, jp := range producers {
			jp.Config.NumReduceTasks = fixedCount
			jp.PinnedReducers = true
		}
	} else if len(producers) > 1 {
		label := "tied-" + jcID
		maxR := 1
		for _, jp := range producers {
			if jp.Config.NumReduceTasks > maxR {
				maxR = jp.Config.NumReduceTasks
			}
		}
		for _, jp := range producers {
			jp.ReduceCountGroup = label
			jp.Config.NumReduceTasks = maxR
		}
	}
	// The consumer's reduce pipeline moves to the map side.
	gc.RunsMapSide = true
	gc.Combiner = nil
	jc.AlignMapToInput = true
	return out, nil
}

// CanInterVertical checks the preconditions of inter-job vertical packing
// between producer jpID and consumer jcID (Section 3.2): a one-to-one
// subgraph where one of the two jobs is Map-only.
func CanInterVertical(w *wf.Workflow, jpID, jcID string) error {
	jp, jc := w.Job(jpID), w.Job(jcID)
	if jp == nil || jc == nil {
		return fmt.Errorf("trans: missing job %q or %q", jpID, jcID)
	}
	link, ok := wf.SoleLink(w, jp, jc)
	if !ok {
		return fmt.Errorf("trans: %s and %s are not linked by exactly one dataset", jpID, jcID)
	}
	if len(w.Consumers(link)) != 1 || len(w.JobConsumers(jp)) != 1 {
		return fmt.Errorf("trans: %s fans out; not a one-to-one subgraph", jpID)
	}
	if !jp.MapOnly() && !jc.MapOnly() {
		return fmt.Errorf("trans: neither %s nor %s is map-only", jpID, jcID)
	}
	if _, err := singleGroup(jp); err != nil {
		return err
	}
	if _, err := singleGroup(jc); err != nil {
		return err
	}
	if jc.MapOnly() {
		// Absorb consumer into producer: the consumer must read only the
		// link (its whole input is the producer's output) through a single
		// branch. Packing appends exactly one flattened pipeline to the
		// producer; a multi-branch consumer (e.g. a map-side join produced
		// by intra-job packing) routes every record through several
		// pipelines, which a flat append cannot represent — absorbing only
		// its first branch silently drops the others' work. (The execution
		// oracle over generated workflows caught exactly that.)
		if len(jc.MapBranches) != 1 {
			return fmt.Errorf("trans: map-only consumer %s has %d branches; packing absorbs a single pipeline", jcID, len(jc.MapBranches))
		}
		ins := jc.Inputs()
		if len(ins) != 1 || ins[0] != link {
			return fmt.Errorf("trans: map-only consumer %s reads datasets beyond the link", jcID)
		}
		return nil
	}
	// Absorb map-only producer into consumer.
	if len(jp.MapBranches) != 1 {
		return fmt.Errorf("trans: map-only producer %s must have a single branch", jpID)
	}
	if pipelineHasGrouping(jp) && len(jc.Inputs()) != 1 {
		return fmt.Errorf("trans: producer %s pipeline needs aligned input; consumer %s is multi-input", jpID, jcID)
	}
	return nil
}

// pipelineOf flattens a single-branch map-only job into one stage list
// (branch stages followed by map-side group stages).
func pipelineOf(j *wf.Job) []wf.Stage {
	var out []wf.Stage
	for _, s := range j.MapBranches[0].Stages {
		out = append(out, s.Clone())
	}
	g := &j.ReduceGroups[0]
	if g.RunsMapSide {
		for _, s := range g.Stages {
			out = append(out, s.Clone())
		}
	}
	return out
}

// pipelineHasGrouping reports whether a map-only job's pipeline contains
// grouped stages (which require ordered, aligned input).
func pipelineHasGrouping(j *wf.Job) bool {
	for _, s := range pipelineOf(j) {
		if s.Kind == wf.ReduceKind {
			return true
		}
	}
	return false
}

// compositeMapProfile returns the profile of a map-only job's whole
// pipeline (map side composed with any map-side group stages).
func compositeMapProfile(j *wf.Job) *wf.PipelineProfile {
	if j.Profile == nil {
		return nil
	}
	mp := j.Profile.MapProfile(j.MapBranches[0])
	g := &j.ReduceGroups[0]
	if g.RunsMapSide && len(g.Stages) > 0 {
		return profile.ComposeSerial(mp, j.Profile.ReduceProfile(g.Tag))
	}
	if mp == nil {
		return nil
	}
	return mp.Clone()
}

// finalSchema returns the output key/value schema of a map-only job.
func finalSchema(j *wf.Job) (key, val []string) {
	g := &j.ReduceGroups[0]
	if g.RunsMapSide && len(g.Stages) > 0 {
		return g.KeyOut, g.ValOut
	}
	return j.MapBranches[0].KeyOut, j.MapBranches[0].ValOut
}

// InterVertical applies inter-job vertical packing, eliminating one job
// and the intermediate dataset between jpID and jcID.
func InterVertical(w *wf.Workflow, jpID, jcID string) (*wf.Workflow, error) {
	if err := CanInterVertical(w, jpID, jcID); err != nil {
		return nil, err
	}
	out := w.Clone()
	jp, jc := out.Job(jpID), out.Job(jcID)
	link, _ := wf.SoleLink(out, jp, jc)

	if jc.MapOnly() {
		mergeConsumerIntoProducer(out, jp, jc, link)
	} else {
		mergeProducerIntoConsumer(out, jp, jc, link)
	}
	out.GC()
	return out, nil
}

// mergeConsumerIntoProducer appends a map-only consumer's pipeline to the
// producer (after its reduce stages if it has any) — Figure 4's right-hand
// plan, where J7's functions run inside J5's reduce tasks.
func mergeConsumerIntoProducer(out *wf.Workflow, jp, jc *wf.Job, link string) {
	gp := &jp.ReduceGroups[0]
	gc := &jc.ReduceGroups[0]
	consumerStages := pipelineOf(jc)
	keyOut, valOut := finalSchema(jc)

	if gp.MapOnly() {
		// Two map-only jobs collapse into one map-only pipeline.
		if gp.RunsMapSide && len(gp.Stages) > 0 {
			// Flatten producer's map-side group into the branch pipeline.
			for bi := range jp.MapBranches {
				if jp.MapBranches[bi].Tag == gp.Tag {
					jp.MapBranches[bi].Stages = append(jp.MapBranches[bi].Stages, gp.Stages...)
				}
			}
			gp.Stages = nil
			gp.RunsMapSide = false
		}
		for bi := range jp.MapBranches {
			jp.MapBranches[bi].Stages = append(jp.MapBranches[bi].Stages, cloneStageList(consumerStages)...)
			jp.MapBranches[bi].KeyOut = keyOut
			jp.MapBranches[bi].ValOut = valOut
		}
		if jp.Profile != nil {
			cons := compositeMapProfile(jc)
			for bi := range jp.MapBranches {
				b := jp.MapBranches[bi]
				jp.Profile.SetMapProfile(b.Tag, b.Input, profile.ComposeSerial(jp.Profile.MapProfile(b), cons))
			}
			jp.Profile.ReduceSide = nil
		}
	} else {
		gp.Stages = append(gp.Stages, consumerStages...)
		if jp.Profile != nil {
			jp.Profile.SetReduceProfile(gp.Tag,
				profile.AdjustInterVerticalIntoReduce(jp.Profile.ReduceProfile(gp.Tag), compositeMapProfile(jc)))
		}
	}
	gp.Output = gc.Output
	gp.KeyOut = keyOut
	gp.ValOut = valOut
	jp.ID = mergeIDs(jp.ID, jc.ID)
	jp.Origin = mergeOrigins(jp, jc)
	out.RemoveJob(jc.ID)
	_ = link
}

// mergeProducerIntoConsumer prepends a map-only producer's pipeline to the
// consumer branch that read its output. For one-to-one subgraphs only; the
// one-to-many replication variant is InterVerticalReplicate.
func mergeProducerIntoConsumer(out *wf.Workflow, jp, jc *wf.Job, link string) {
	prependProducer(jp, jc, link)
	jc.ID = mergeIDs(jp.ID, jc.ID)
	jc.Origin = mergeOrigins(jp, jc)
	out.RemoveJob(jp.ID)
}

// prependProducer is the packing every map-only-producer transformation
// shares: each branch of jc that reads link gets jp's pipeline in front of
// its own and reads jp's input directly (input, filter and input schema are
// jp's), with the branch's profile re-derived; jc aligns its map tasks to
// the input when jp did or when jp's pipeline groups.
func prependProducer(jp, jc *wf.Job, link string) {
	pb := &jp.MapBranches[0]
	prodStages := pipelineOf(jp)
	prodProfile := compositeMapProfile(jp)
	for bi := range jc.MapBranches {
		b := &jc.MapBranches[bi]
		if b.Input != link {
			continue
		}
		oldProf := (*wf.PipelineProfile)(nil)
		if jc.Profile != nil {
			oldProf = jc.Profile.MapProfile(*b)
		}
		b.Stages = append(cloneStageList(prodStages), b.Stages...)
		b.Input = pb.Input
		b.Filter = pb.Filter.Clone()
		b.KeyIn = append([]string(nil), pb.KeyIn...)
		b.ValIn = append([]string(nil), pb.ValIn...)
		if jc.Profile != nil {
			jc.Profile.SetMapProfile(b.Tag, b.Input,
				profile.AdjustInterVerticalIntoMap(prodProfile, oldProf))
		}
	}
	if jp.AlignMapToInput || pipelineHasGroupingStages(prodStages) {
		jc.AlignMapToInput = true
	}
}

// CanInterVerticalReplicate checks the one-to-many extension: a map-only
// producer replicated into each of its consumers (Section 3.2, extension i).
func CanInterVerticalReplicate(w *wf.Workflow, jpID string) error {
	jp := w.Job(jpID)
	if jp == nil {
		return fmt.Errorf("trans: no job %q", jpID)
	}
	if !jp.MapOnly() {
		return fmt.Errorf("trans: %s is not map-only", jpID)
	}
	if len(jp.MapBranches) != 1 {
		return fmt.Errorf("trans: producer %s must have a single branch", jpID)
	}
	if _, err := singleGroup(jp); err != nil {
		return err
	}
	link := jp.ReduceGroups[0].Output
	consumers := w.Consumers(link)
	if len(consumers) < 2 {
		return fmt.Errorf("trans: %s has %d consumers; replication needs several", jpID, len(consumers))
	}
	grouping := pipelineHasGrouping(jp)
	for _, jc := range consumers {
		if grouping && len(jc.Inputs()) != 1 {
			return fmt.Errorf("trans: consumer %s is multi-input but producer pipeline needs alignment", jc.ID)
		}
	}
	return nil
}

// InterVerticalReplicate replicates a map-only producer's pipeline into
// every consumer, eliminating the producer and its output dataset at the
// cost of recomputing the pipeline per consumer.
func InterVerticalReplicate(w *wf.Workflow, jpID string) (*wf.Workflow, error) {
	if err := CanInterVerticalReplicate(w, jpID); err != nil {
		return nil, err
	}
	out := w.Clone()
	jp := out.Job(jpID)
	link := jp.ReduceGroups[0].Output
	for _, jc := range out.Consumers(link) {
		prependProducer(jp, jc, link)
		jc.Origin = mergeOrigins(jp, jc)
	}
	out.RemoveJob(jp.ID)
	out.GC()
	return out, nil
}

// CanInterVerticalKeep checks the other one-to-many extension (Section
// 3.2, extension ii): a map-only producer packs into one chosen consumer
// "while ensuring that Jp's original output dataset is still generated
// (materialized to disk) for the other consumer jobs".
func CanInterVerticalKeep(w *wf.Workflow, jpID, jcID string) error {
	jp, jc := w.Job(jpID), w.Job(jcID)
	if jp == nil || jc == nil {
		return fmt.Errorf("trans: missing job %q or %q", jpID, jcID)
	}
	if !jp.MapOnly() {
		return fmt.Errorf("trans: %s is not map-only", jpID)
	}
	if len(jp.MapBranches) != 1 {
		return fmt.Errorf("trans: producer %s must have a single branch", jpID)
	}
	if _, err := singleGroup(jp); err != nil {
		return err
	}
	if _, err := singleGroup(jc); err != nil {
		return err
	}
	link := jp.ReduceGroups[0].Output
	if len(w.Consumers(link)) < 2 {
		return fmt.Errorf("trans: %s has a single consumer; use InterVertical", jpID)
	}
	readsLink := false
	for _, in := range jc.Inputs() {
		if in == link {
			readsLink = true
		}
	}
	if !readsLink {
		return fmt.Errorf("trans: %s does not consume %s", jcID, link)
	}
	if pipelineHasGrouping(jp) && len(jc.Inputs()) != 1 {
		return fmt.Errorf("trans: producer %s pipeline needs aligned input; consumer %s is multi-input", jpID, jcID)
	}
	// The merged job becomes the producer of the materialized dataset, so
	// no other consumer of that dataset may be upstream of the chosen
	// consumer — the merge would close a dependency cycle.
	for _, other := range w.Consumers(link) {
		if other.ID != jcID && PathExists(w, other.ID, jcID) {
			return fmt.Errorf("trans: consumer %s of %s is upstream of %s; packing would create a cycle", other.ID, link, jcID)
		}
	}
	return nil
}

// InterVerticalKeep packs the map-only producer jpID into consumer jcID
// while keeping the producer's output materialized for its other
// consumers: the merged job gains an extra tagged branch-and-group pair
// that runs the producer pipeline and writes the original dataset, sharing
// the input scan with the packed branch (the same wrapper-and-tagging
// machinery horizontal packing uses). One job and one read of the
// producer's input are eliminated; nothing downstream changes.
func InterVerticalKeep(w *wf.Workflow, jpID, jcID string) (*wf.Workflow, error) {
	if err := CanInterVerticalKeep(w, jpID, jcID); err != nil {
		return nil, err
	}
	out := w.Clone()
	jp, jc := out.Job(jpID), out.Job(jcID)
	pb := &jp.MapBranches[0]
	gp := &jp.ReduceGroups[0]
	link := gp.Output
	prodStages := pipelineOf(jp)
	prodProfile := compositeMapProfile(jp)
	prodKeyOut, prodValOut := finalSchema(jp)

	// Rewire the consumer's link branch(es): producer pipeline in front,
	// reading the producer's input directly.
	prependProducer(jp, jc, link)

	// A fresh tag materializes the producer's output for the remaining
	// consumers, sharing the packed branch's scan of the input.
	newTag := 0
	for _, g := range jc.ReduceGroups {
		if g.Tag >= newTag {
			newTag = g.Tag + 1
		}
	}
	jc.MapBranches = append(jc.MapBranches, wf.MapBranch{
		Tag:    newTag,
		Input:  pb.Input,
		Stages: cloneStageList(prodStages),
		Filter: pb.Filter.Clone(),
		KeyIn:  append([]string(nil), pb.KeyIn...),
		ValIn:  append([]string(nil), pb.ValIn...),
		KeyOut: append([]string(nil), prodKeyOut...),
		ValOut: append([]string(nil), prodValOut...),
	})
	matGroup := wf.ReduceGroup{
		Tag:    newTag,
		Output: link,
		Part:   gp.Part.Clone(),
		KeyIn:  append([]string(nil), gp.KeyIn...),
		ValIn:  append([]string(nil), gp.ValIn...),
		KeyOut: append([]string(nil), prodKeyOut...),
		ValOut: append([]string(nil), prodValOut...),
	}
	for _, c := range gp.Constraints {
		matGroup.Constraints = append(matGroup.Constraints, c.Clone())
	}
	jc.ReduceGroups = append(jc.ReduceGroups, matGroup)
	if jc.Profile != nil && prodProfile != nil {
		jc.Profile.SetMapProfile(newTag, pb.Input, prodProfile.Clone())
	}

	jc.ID = mergeIDs(jp.ID, jc.ID)
	jc.Origin = mergeOrigins(jp, jc)
	out.RemoveJob(jp.ID)
	out.GC()
	return out, nil
}

func pipelineHasGroupingStages(stages []wf.Stage) bool {
	for _, s := range stages {
		if s.Kind == wf.ReduceKind {
			return true
		}
	}
	return false
}

func cloneStageList(in []wf.Stage) []wf.Stage {
	out := make([]wf.Stage, len(in))
	for i, s := range in {
		out[i] = s.Clone()
	}
	return out
}
