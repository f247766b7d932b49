package wf

// Rooted-subgraph fingerprints (ReStore-style sub-plan reuse): a canonical
// digest of everything that determines the *content* of one dataset — the
// producing sub-DAG's structure, per-job programs, configurations, and
// profile annotations, plus the base datasets it reads (a base dataset's ID
// is its DFS location, so it participates by identity). Like the workflow
// fingerprint, the digest is insensitive to workflow Name, job IDs, Origin
// bookkeeping, and — unlike it — to *dataset* IDs along the way: a branch's
// Input name is replaced by the recursive sub-fingerprint of that input, and
// a group's Output name by the ordinal of the group within its job, so two
// differently-named workflows producing a dataset by the same computation
// over the same bases collide exactly. Two datasets with equal sub-plan
// fingerprints hold identical records, which is what makes the fingerprint
// a sound key for a cross-workflow reuse catalog.
//
// ReduceCountGroup ties are deliberately omitted: they constrain the
// configuration *search*, not the data a fixed configuration produces, and
// the tied NumReduceTasks itself is already hashed via the job Config.

// SubplanFingerprint digests the producing sub-DAG of one dataset with a
// throwaway Hasher. ok is false when the dataset does not exist in w.
func SubplanFingerprint(w *Workflow, dsID string) (Fingerprint, bool) {
	return NewHasher().Subplan(w, dsID)
}

// Subplan digests the rooted subgraph producing dsID. The workflow is read,
// never modified; the Hasher's profile/program/dataset memos are shared with
// whole-workflow fingerprinting, so interleaving the two is cheap.
func (h *Hasher) Subplan(w *Workflow, dsID string) (Fingerprint, bool) {
	return h.subplan(w, dsID, map[string]Fingerprint{}, map[string]bool{})
}

func (h *Hasher) subplan(w *Workflow, dsID string, memo map[string]Fingerprint, onPath map[string]bool) (Fingerprint, bool) {
	if fp, ok := memo[dsID]; ok {
		return fp, true
	}
	d := w.Dataset(dsID)
	if d == nil || onPath[dsID] {
		return Fingerprint{}, false
	}
	if d.Base {
		// A base dataset is content-addressed by its DFS location: hash the
		// full dataset digest (which includes the ID) under a distinct tag.
		fw := newFPWriter()
		fw.str("sub-base")
		fp := h.dataset(d)
		fw.u64(fp[0])
		fw.u64(fp[1])
		out := fw.sum()
		memo[dsID] = out
		return out, true
	}
	j := w.Producer(dsID)
	if j == nil {
		return Fingerprint{}, false
	}
	onPath[dsID] = true
	defer delete(onPath, dsID)

	fw := newFPWriter()
	fw.str("sub-v1")
	fw.bool(j.AlignMapToInput)
	fw.bool(j.PinnedReducers)
	fw.config(j.Config)
	pf := h.profile(j.Profile)
	fw.u64(pf[0])
	fw.u64(pf[1])
	fw.num(len(j.MapBranches))
	for i := range j.MapBranches {
		b := &j.MapBranches[i]
		in, ok := h.subplan(w, b.Input, memo, onPath)
		if !ok {
			return Fingerprint{}, false
		}
		fw.u64(in[0])
		fw.u64(in[1])
		fw.branch(b, false)
	}
	fw.num(len(j.ReduceGroups))
	target := -1
	for i := range j.ReduceGroups {
		g := &j.ReduceGroups[i]
		if g.Output == dsID && target < 0 {
			target = i
		}
		fw.group(g, false)
	}
	// Which of the job's outputs this fingerprint is rooted at — a
	// multi-output producer yields one distinct digest per output.
	fw.num(target)
	out := fw.sum()
	memo[dsID] = out
	return out, true
}

// ProducingJobs returns the transitive producer closure of one dataset: every
// job that must run for dsID to exist, in workflow job-slice order (which is
// deterministic and respects no particular topology — callers needing a
// topological order should TopoSort the result's workflow). Returns nil for
// base or unknown datasets.
func ProducingJobs(w *Workflow, dsID string) []*Job {
	need := map[string]bool{}
	var visit func(id string)
	visit = func(id string) {
		j := w.Producer(id)
		if j == nil || need[j.ID] {
			return
		}
		need[j.ID] = true
		for _, in := range j.Inputs() {
			visit(in)
		}
	}
	visit(dsID)
	if len(need) == 0 {
		return nil
	}
	out := make([]*Job, 0, len(need))
	for _, j := range w.Jobs {
		if need[j.ID] {
			out = append(out, j)
		}
	}
	return out
}
