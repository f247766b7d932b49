package mrsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// keySampleSize is the reservoir size for profile key samples. It bounds
// both the quality of derived range split points and the resolution of
// skew estimates, so it is sized like production samplers (TeraSort-style
// partitioners sample thousands of keys).
const keySampleSize = 1500

// Engine executes workflows on a simulated cluster over a simulated DFS.
type Engine struct {
	Cluster *Cluster
	DFS     *DFS
	// JobFinished, when non-nil, is called after each job completes, with
	// its full report. It runs synchronously from the simulation loop, so
	// it should return quickly.
	JobFinished func(*JobReport)
	// Fault, when non-nil, perturbs task scheduling: failures with
	// bounded retries, lognormal stragglers, heterogeneous slot speeds,
	// and speculative re-execution. Only simulated timings move — the
	// data path is untouched — and a model with all rates zero and no
	// node classes reproduces the nil-model timings bit for bit.
	Fault *FaultModel
	// RecordTaskEvents, when true, collects one TaskEvent per simulated
	// task into the run report, in scheduling order.
	RecordTaskEvents bool
}

// NewEngine builds an engine.
func NewEngine(c *Cluster, dfs *DFS) *Engine {
	return &Engine{Cluster: c, DFS: dfs}
}

// TagStats aggregates per-tag dataflow statistics over a whole job run.
type TagStats struct {
	// MapByInput holds map-pipeline stats per input dataset feeding the tag.
	MapByInput map[string]*PipeStats
	// Reduce holds reduce-pipeline stats (zero for map-only tags).
	Reduce PipeStats
	// CombineIn/CombineOut count records entering and surviving the
	// combiner (equal when no combiner ran).
	CombineIn, CombineOut int64
	// MapKeySample is a uniform sample of map-output keys for this tag.
	MapKeySample []keyval.Tuple
}

// MapTotals sums the per-input map stats.
func (t *TagStats) MapTotals() PipeStats {
	var out PipeStats
	for _, s := range t.MapByInput {
		out.Add(*s)
	}
	return out
}

// JobReport records the execution of one job: task counts, simulated
// timings, and per-tag dataflow statistics.
type JobReport struct {
	JobID          string
	NumMapTasks    int
	NumReduceTasks int
	// Start and End are simulated times; MapsDone is when the map phase
	// finished (reduce tasks become ready then).
	Start, End, MapsDone float64
	// MapTaskSeconds/ReduceTaskSeconds sum task durations (work, not span).
	MapTaskSeconds, ReduceTaskSeconds float64
	// MaxMapTaskSec/MaxReduceTaskSec expose straggler effects (skew);
	// the What-if engine prices them into wave packing as one task of the
	// maximum duration among tasks of the average.
	MaxMapTaskSec, MaxReduceTaskSec float64
	// TaskFailures/TaskRetries count failed attempts and the re-executions
	// they triggered; SpeculativeTasks/SpeculativeWins count tasks that
	// launched a backup and backups that committed. All zero when the
	// engine runs without a FaultModel.
	TaskFailures, TaskRetries         int
	SpeculativeTasks, SpeculativeWins int
	// ShuffleBytesVirtual is the total on-wire shuffle volume.
	ShuffleBytesVirtual float64
	// MapInputBytes is the real (unscaled, uncompressed) input volume read.
	MapInputBytes int64
	// PrunedPartitions counts input partitions skipped by partition pruning.
	PrunedPartitions int
	// Tags holds per-tag dataflow statistics.
	Tags map[int]*TagStats
}

// Span returns End-Start.
func (r *JobReport) Span() float64 { return r.End - r.Start }

// RunReport is the result of executing a workflow.
type RunReport struct {
	Workflow string
	// Makespan is the simulated completion time of the whole workflow.
	Makespan float64
	Jobs     []*JobReport
	// TaskEvents holds the per-task trace when Engine.RecordTaskEvents is
	// set, in scheduling order (deterministic for a given plan and model).
	TaskEvents []TaskEvent
}

// TaskEvent records one simulated task placement for trace-based replay
// testing.
type TaskEvent struct {
	Job        string
	Reduce     bool
	Index      int
	Start, End float64
	// Attempts/Failures and the speculation flags mirror TaskFate
	// (Attempts is 1 with a nil or quiet fault model).
	Attempts, Failures  int
	Speculated, SpecWon bool
}

// TraceBytes renders the task-event trace in a fixed format, one line per
// task — the byte-identical replay contract is asserted on this form.
func (r *RunReport) TraceBytes() []byte {
	var b []byte
	for _, ev := range r.TaskEvents {
		kind := "map"
		if ev.Reduce {
			kind = "red"
		}
		b = append(b, fmt.Sprintf("%s %s[%d] %.9g %.9g a=%d f=%d spec=%v won=%v\n",
			ev.Job, kind, ev.Index, ev.Start, ev.End,
			ev.Attempts, ev.Failures, ev.Speculated, ev.SpecWon)...)
	}
	return b
}

// Job returns the report for a job ID, or nil.
func (r *RunReport) Job(id string) *JobReport {
	for _, j := range r.Jobs {
		if j.JobID == id {
			return j
		}
	}
	return nil
}

// RunWorkflow validates and executes the workflow, materializing every
// job's outputs on the DFS and returning simulated timings.
func (e *Engine) RunWorkflow(w *wf.Workflow) (*RunReport, error) {
	return e.RunWorkflowContext(context.Background(), w)
}

// RunWorkflowContext is RunWorkflow under a context: cancellation is
// checked between jobs and between task scheduling waves, so a long
// simulated run stops promptly with ctx.Err(). Outputs of jobs completed
// before cancellation remain on the DFS; the workflow is not modified.
func (e *Engine) RunWorkflowContext(ctx context.Context, w *wf.Workflow) (*RunReport, error) {
	if err := e.Cluster.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	order, err := w.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, d := range w.Datasets {
		if d.Base {
			if _, ok := e.DFS.Get(d.ID); !ok {
				return nil, fmt.Errorf("mrsim: base dataset %q not on DFS", d.ID)
			}
		}
	}
	sched := &taskSched{
		mapPool: NewSlotPool(e.Cluster.TotalMapSlots()),
		redPool: NewSlotPool(e.Cluster.TotalReduceSlots()),
		record:  e.RecordTaskEvents,
	}
	if e.Fault != nil {
		if err := e.Fault.Validate(); err != nil {
			return nil, err
		}
		sched.fm = e.Fault
		sched.fMap = NewFaultyPool(e.Fault.SlotSpeeds(e.Cluster, false))
		sched.fRed = NewFaultyPool(e.Fault.SlotSpeeds(e.Cluster, true))
	}
	ready := make(map[string]float64)
	report := &RunReport{Workflow: w.Name}
	for _, job := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var jobReady float64
		for _, in := range job.Inputs() {
			if t := ready[in]; t > jobReady {
				jobReady = t
			}
		}
		jr, end, err := e.runJob(ctx, w, job, jobReady, sched)
		if err != nil {
			return nil, fmt.Errorf("mrsim: job %s: %w", job.ID, err)
		}
		report.Jobs = append(report.Jobs, jr)
		for _, out := range job.Outputs() {
			ready[out] = end
		}
		if end > report.Makespan {
			report.Makespan = end
		}
		if e.JobFinished != nil {
			e.JobFinished(jr)
		}
	}
	report.TaskEvents = sched.events
	return report, nil
}

// taskSched dispatches task placements either to the plain slot pools or,
// when a FaultModel is attached, to the perturbed heterogeneous pools.
// The indirection keeps the fault-free path running exactly the old slot
// arithmetic, which the zero-perturbation metamorphic suite pins down.
type taskSched struct {
	mapPool, redPool *SlotPool
	fm               *FaultModel
	fMap, fRed       *FaultyPool
	record           bool
	events           []TaskEvent
}

// place schedules one task and returns its end time. With a fault model,
// a task that exhausts its retry budget fails the run.
func (s *taskSched) place(jr *JobReport, reduce bool, index int, ready, dur float64) (float64, error) {
	if s.fm == nil {
		pool := s.mapPool
		if reduce {
			pool = s.redPool
		}
		start, end := pool.Schedule(ready, dur)
		if s.record {
			s.events = append(s.events, TaskEvent{Job: jr.JobID, Reduce: reduce,
				Index: index, Start: start, End: end, Attempts: 1})
		}
		return end, nil
	}
	pool := s.fMap
	if reduce {
		pool = s.fRed
	}
	fate := s.fm.ScheduleTask(pool, s.fm.TaskKey(jr.JobID, reduce, index), ready, dur)
	jr.TaskFailures += fate.Failures
	if fate.Speculated {
		jr.SpeculativeTasks++
		if fate.SpecWon {
			jr.SpeculativeWins++
		}
	}
	if s.record {
		s.events = append(s.events, TaskEvent{Job: jr.JobID, Reduce: reduce,
			Index: index, Start: fate.Start, End: fate.End,
			Attempts: fate.Attempts, Failures: fate.Failures,
			Speculated: fate.Speculated, SpecWon: fate.SpecWon})
	}
	if fate.FailedOut {
		kind := "map"
		if reduce {
			kind = "reduce"
		}
		return 0, fmt.Errorf("%s task %d failed %d attempts (retry bound %d, fault seed %d)",
			kind, index, fate.Attempts, s.fm.MaxRetries, s.fm.Seed)
	}
	jr.TaskRetries += fate.Failures
	return fate.End, nil
}

// splitRec carries one record with its source dataset for branch routing.
type splitRec struct {
	input string
	pair  keyval.Pair
}

// mapSplit is the input of one map task.
type mapSplit struct {
	recs      []splitRec
	bytes     int64                  // real encoded bytes
	reads     []splitRead            // per input, in job input order
	srcBounds keyval.PartitionBounds // bounds of source partition (aligned)
}

// splitRead is what a map task reads of one input.
type splitRead struct {
	bytes      int64 // real encoded bytes
	compressed bool  // on-disk compression
}

// tagRuntime caches per-tag execution state for one job.
type tagRuntime struct {
	group    *wf.ReduceGroup
	numParts int
	sortIdx  []int // resolved lazily against key width
	stats    *TagStats
	sample   *reservoir
}

func (e *Engine) runJob(ctx context.Context, w *wf.Workflow, job *wf.Job, jobReady float64, sched *taskSched) (*JobReport, float64, error) {
	cfg := job.Config
	jr := &JobReport{JobID: job.ID, Start: jobReady, Tags: make(map[int]*TagStats)}

	// Resolve per-tag runtime info and the job-wide reduce task count.
	tags := make(map[int]*tagRuntime)
	var tagOrder []int
	numReduce := job.NumReduceTasks()
	for i := range job.ReduceGroups {
		g := &job.ReduceGroups[i]
		ts := &TagStats{MapByInput: make(map[string]*PipeStats)}
		jr.Tags[g.Tag] = ts
		tags[g.Tag] = &tagRuntime{
			group:    g,
			numParts: g.Partitions(numReduce),
			stats:    ts,
			sample:   newReservoir(keySampleSize, sampleSeed(job.ID, g.Tag)),
		}
		tagOrder = append(tagOrder, g.Tag)
	}
	sort.Ints(tagOrder)

	splits, err := e.buildSplits(w, job, jr)
	if err != nil {
		return nil, 0, err
	}
	jr.NumMapTasks = len(splits)

	// Execute map tasks.
	type mapTaskOut struct {
		buckets map[int][][]keyval.Pair // tag -> partition -> pairs
		mapOnly map[int][]keyval.Pair   // tag -> output pairs
	}
	taskOuts := make([]mapTaskOut, len(splits))
	mapsDone := jobReady
	for ti, sp := range splits {
		// Cancellation between map scheduling waves: each iteration places
		// one simulated task, so this bounds the wait to one task's work.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		out := mapTaskOut{
			buckets: make(map[int][][]keyval.Pair),
			mapOnly: make(map[int][]keyval.Pair),
		}
		for _, tag := range tagOrder {
			if rt := tags[tag]; !rt.group.MapOnly() {
				out.buckets[tag] = make([][]keyval.Pair, rt.numParts)
			}
		}
		// Map-side group chains: intra-packed reduce pipelines that run
		// inside the map task on the merged branch output stream.
		groupChains := make(map[int]*chain)
		for _, tag := range tagOrder {
			if rt := tags[tag]; rt.group.RunsMapSide && len(rt.group.Stages) > 0 {
				t := tag
				groupChains[tag] = newChain(rt.group.Stages, func(p keyval.Pair) {
					out.mapOnly[t] = append(out.mapOnly[t], p)
				})
			}
		}
		// One chain per branch, fresh per task so stats stay per-task.
		type branchExec struct {
			branch *wf.MapBranch
			ch     *chain
		}
		var execs []branchExec
		var taskCPU float64
		for bi := range job.MapBranches {
			b := &job.MapBranches[bi]
			rt := tags[b.Tag]
			g := rt.group
			tag := b.Tag
			var sink func(keyval.Pair)
			switch {
			case groupChains[tag] != nil:
				gc := groupChains[tag]
				sink = func(p keyval.Pair) {
					rt.sample.add(p.Key)
					gc.head(p)
				}
			case g.MapOnly():
				sink = func(p keyval.Pair) {
					rt.sample.add(p.Key)
					out.mapOnly[tag] = append(out.mapOnly[tag], p)
				}
			default:
				n := rt.numParts
				spec := g.Part
				sink = func(p keyval.Pair) {
					rt.sample.add(p.Key)
					r := spec.Partition(p.Key, n)
					out.buckets[tag][r] = append(out.buckets[tag][r], p)
				}
			}
			execs = append(execs, branchExec{branch: b, ch: newChain(b.Stages, sink)})
		}
		for _, rec := range sp.recs {
			for _, be := range execs {
				if be.branch.Input == rec.input {
					be.ch.head(rec.pair)
				}
			}
		}
		for _, be := range execs {
			be.ch.close()
			taskCPU += be.ch.stats.CPU
			st := tags[be.branch.Tag].stats
			ps := st.MapByInput[be.branch.Input]
			if ps == nil {
				ps = &PipeStats{}
				st.MapByInput[be.branch.Input] = ps
			}
			ps.Add(be.ch.stats)
		}
		for _, tag := range tagOrder {
			gc := groupChains[tag]
			if gc == nil {
				continue
			}
			gc.close()
			taskCPU += gc.stats.CPU
			tags[tag].stats.Reduce.Add(gc.stats)
		}

		// Sort, combine, and size the map output. Tags iterate in sorted
		// order so the combiner CPU folded into taskCPU accumulates in a
		// fixed float order — map-order iteration left multi-tag task
		// durations (and so reported makespans) varying per process.
		var outRecords, outBytes int64
		for _, tag := range tagOrder {
			rt := tags[tag]
			g := rt.group
			if g.MapOnly() {
				continue
			}
			for r := range out.buckets[tag] {
				bucket := out.buckets[tag][r]
				if len(bucket) == 0 {
					continue
				}
				sortIdx := resolveSortFields(rt, bucket[0].Key)
				keyval.SortPairs(bucket, sortIdx)
				if cfg.UseCombiner && g.Combiner != nil {
					combined, in, cpu := runCombiner(*g.Combiner, bucket)
					rt.stats.CombineIn += in
					rt.stats.CombineOut += int64(len(combined))
					taskCPU += cpu
					bucket = combined
					out.buckets[tag][r] = bucket
				}
				outRecords += int64(len(bucket))
				outBytes += keyval.PairsSize(bucket)
			}
		}

		// Map task duration. Reads add up in job input order, so a task
		// over several aligned inputs prices the same on every run.
		c := e.Cluster
		var readSec float64
		for _, in := range sp.reads {
			readSec += c.DiskTime(c.Scale(float64(in.bytes)), in.compressed)
		}
		var writeBytes int64
		for _, tag := range tagOrder {
			writeBytes += keyval.PairsSize(out.mapOnly[tag])
		}
		dur := c.MapTaskCost(MapTaskVolume{
			Tasks:      1,
			ReadSec:    readSec,
			CPUSec:     c.Scale(taskCPU),
			OutRecords: c.Scale(float64(outRecords)),
			OutBytes:   c.Scale(float64(outBytes)),
			WriteBytes: c.Scale(float64(writeBytes)),
		}, cfg).Total()
		end, err := sched.place(jr, false, ti, jobReady, dur)
		if err != nil {
			return nil, 0, err
		}
		if end > mapsDone {
			mapsDone = end
		}
		jr.MapTaskSeconds += dur
		if dur > jr.MaxMapTaskSec {
			jr.MaxMapTaskSec = dur
		}
		jr.MapInputBytes += sp.bytes
		taskOuts[ti] = out
	}
	jr.MapsDone = mapsDone

	// Materialize map-only outputs: one partition per map task.
	for _, tag := range tagOrder {
		rt := tags[tag]
		if !rt.group.MapOnly() {
			continue
		}
		parts := make([]*Partition, len(splits))
		for ti := range splits {
			p := NewPartition(taskOuts[ti].mapOnly[tag])
			p.Bounds = splits[ti].srcBounds
			parts[ti] = p
		}
		layout := e.mapOnlyLayout(w, job, rt.group)
		e.DFS.Put(rt.group.Output, parts, layout)
		rt.stats.MapKeySample = rt.sample.keys
	}

	end := mapsDone
	if numReduce > 0 {
		jr.NumReduceTasks = numReduce
		outParts := make(map[int][]*Partition) // tag -> partitions
		for _, tag := range tagOrder {
			rt := tags[tag]
			if !rt.group.MapOnly() {
				outParts[tag] = make([]*Partition, rt.numParts)
			}
		}
		c := e.Cluster
		for r := 0; r < numReduce; r++ {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			var shuffleBytes int64
			var fetchRuns int
			var taskCPU float64
			var outBytes int64
			for _, tag := range tagOrder {
				rt := tags[tag]
				g := rt.group
				if g.MapOnly() || r >= rt.numParts {
					continue
				}
				var input []keyval.Pair
				for ti := range taskOuts {
					seg := taskOuts[ti].buckets[tag][r]
					if len(seg) > 0 {
						input = append(input, seg...)
						fetchRuns++
					}
				}
				shuffleBytes += keyval.PairsSize(input)
				if len(input) > 0 {
					sortIdx := resolveSortFields(rt, input[0].Key)
					keyval.SortPairs(input, sortIdx)
				}
				var outputs []keyval.Pair
				ch := newChain(g.Stages, func(p keyval.Pair) { outputs = append(outputs, p) })
				for _, p := range input {
					ch.head(p)
				}
				ch.close()
				rt.stats.Reduce.Add(ch.stats)
				taskCPU += ch.stats.CPU
				outBytes += keyval.PairsSize(outputs)
				outParts[tag][r] = NewPartition(outputs)
			}
			dur := c.ReduceTaskCost(ReduceTaskVolume{
				InBytes:  c.Scale(float64(shuffleBytes)),
				Runs:     fetchRuns,
				CPUSec:   c.Scale(taskCPU),
				OutBytes: c.Scale(float64(outBytes)),
			}, cfg).Total()
			tend, terr := sched.place(jr, true, r, mapsDone, dur)
			if terr != nil {
				return nil, 0, terr
			}
			if tend > end {
				end = tend
			}
			jr.ReduceTaskSeconds += dur
			if dur > jr.MaxReduceTaskSec {
				jr.MaxReduceTaskSec = dur
			}
			jr.ShuffleBytesVirtual += c.wireBytes(c.Scale(float64(shuffleBytes)), cfg.CompressMapOutput)
		}
		// Materialize reduce outputs.
		for _, tag := range tagOrder {
			rt := tags[tag]
			g := rt.group
			if g.MapOnly() {
				continue
			}
			parts := outParts[tag]
			for i, p := range parts {
				if p == nil {
					parts[i] = NewPartition(nil)
				}
			}
			if g.Part.Type == keyval.RangePartition {
				bounds := keyval.RangeBounds(g.Part.SplitPoints)
				for i := range parts {
					if i < len(bounds) {
						parts[i].Bounds = bounds[i]
					}
				}
			}
			e.DFS.Put(g.Output, parts, wf.DeriveGroupOutputLayout(*g, cfg))
			rt.stats.MapKeySample = rt.sample.keys
		}
	}
	jr.End = end
	return jr, end, nil
}

// buildSplits constructs the map-task inputs: aligned one-task-per-partition
// when a vertical packing postcondition requires it, otherwise size-based
// splits with partition pruning against filter annotations.
func (e *Engine) buildSplits(w *wf.Workflow, job *wf.Job, jr *JobReport) ([]mapSplit, error) {
	inputs := job.Inputs()
	if job.AlignMapToInput {
		return e.buildAlignedSplits(w, job, inputs)
	}
	splitBytes := int64(float64(job.Config.SplitSizeMB) * MB / e.Cluster.VirtualScale)
	if splitBytes < 1 {
		splitBytes = 1
	}
	var splits []mapSplit
	for _, in := range inputs {
		stored, ok := e.DFS.Get(in)
		if !ok {
			return nil, fmt.Errorf("input dataset %q not on DFS", in)
		}
		for _, part := range stored.Parts {
			if e.canPrune(job, in, stored.Layout, part) {
				jr.PrunedPartitions++
				continue
			}
			// Chunk the partition without crossing partition boundaries.
			start := 0
			var bytes int64
			for i, p := range part.Pairs {
				bytes += keyval.PairSize(p)
				if bytes >= splitBytes || i == len(part.Pairs)-1 {
					recs := make([]splitRec, 0, i-start+1)
					for _, q := range part.Pairs[start : i+1] {
						recs = append(recs, splitRec{input: in, pair: q})
					}
					splits = append(splits, mapSplit{
						recs:  recs,
						bytes: bytes,
						reads: []splitRead{{bytes: bytes, compressed: stored.Layout.Compressed}},
					})
					start = i + 1
					bytes = 0
				}
			}
			if len(part.Pairs) == 0 {
				// Empty partitions produce no map task.
				continue
			}
		}
	}
	return splits, nil
}

// buildAlignedSplits creates one map task per input partition, merging
// aligned partitions of multiple inputs in their shared sort order so that
// pipelined ReduceKind stages see correctly clustered data.
func (e *Engine) buildAlignedSplits(w *wf.Workflow, job *wf.Job, inputs []string) ([]mapSplit, error) {
	type src struct {
		id     string
		stored *Stored
		keyIdx []int // sort projection for merging
	}
	var srcs []src
	numParts := -1
	for _, in := range inputs {
		stored, ok := e.DFS.Get(in)
		if !ok {
			return nil, fmt.Errorf("input dataset %q not on DFS", in)
		}
		if numParts == -1 {
			numParts = len(stored.Parts)
		} else if numParts != len(stored.Parts) {
			return nil, fmt.Errorf("aligned inputs have mismatched partition counts (%q has %d, want %d)",
				in, len(stored.Parts), numParts)
		}
		s := src{id: in, stored: stored}
		ds := w.Dataset(in)
		if ds != nil && len(stored.Layout.SortFields) > 0 {
			if idx, ok := wf.IndicesOf(ds.KeyFields, stored.Layout.SortFields); ok {
				s.keyIdx = idx
			}
		}
		srcs = append(srcs, s)
	}
	canMerge := len(srcs) > 1
	for _, s := range srcs {
		if s.keyIdx == nil {
			canMerge = false
		}
	}
	splits := make([]mapSplit, numParts)
	for pi := 0; pi < numParts; pi++ {
		sp := mapSplit{
			reads:     make([]splitRead, len(srcs)),
			srcBounds: srcs[0].stored.Parts[pi].Bounds,
		}
		n := 0
		for si, s := range srcs {
			part := s.stored.Parts[pi]
			sp.bytes += part.Bytes
			sp.reads[si] = splitRead{bytes: part.Bytes, compressed: s.stored.Layout.Compressed}
			n += len(part.Pairs)
		}
		// K-way merge of the aligned partitions; a single input drains in
		// order.
		sp.recs = make([]splitRec, 0, n)
		cursors := make([]int, len(srcs))
		for {
			best := -1
			for si, s := range srcs {
				part := s.stored.Parts[pi]
				if cursors[si] >= len(part.Pairs) {
					continue
				}
				if best == -1 {
					best = si
					continue
				}
				if !canMerge {
					continue // keep input order: drain sources in order
				}
				a := part.Pairs[cursors[si]].Key
				bPart := srcs[best].stored.Parts[pi]
				b := bPart.Pairs[cursors[best]].Key
				if keyval.Compare(keyval.Project(a, s.keyIdx), keyval.Project(b, srcs[best].keyIdx)) < 0 {
					best = si
				}
			}
			if best == -1 {
				break
			}
			s := srcs[best]
			sp.recs = append(sp.recs, splitRec{input: s.id, pair: s.stored.Parts[pi].Pairs[cursors[best]]})
			cursors[best]++
		}
		splits[pi] = sp
	}
	return splits, nil
}

// canPrune decides whether an input partition can be skipped: the dataset
// must be range partitioned on the filtered field and every branch of the
// job reading it must filter out the partition's whole key range.
func (e *Engine) canPrune(job *wf.Job, dsID string, layout wf.Layout, part *Partition) bool {
	if layout.PartType != keyval.RangePartition || len(layout.PartFields) == 0 {
		return false
	}
	field := layout.PartFields[0]
	any := false
	for i := range job.MapBranches {
		b := &job.MapBranches[i]
		if b.Input != dsID {
			continue
		}
		any = true
		if b.Filter == nil || b.Filter.Field != field {
			return false
		}
		if part.Bounds.FieldRangeOverlaps(b.Filter.Interval) {
			return false
		}
	}
	return any
}

// mapOnlyLayout derives the output layout of a map-only group from its
// (first) branch's input dataset layout.
func (e *Engine) mapOnlyLayout(w *wf.Workflow, job *wf.Job, g *wf.ReduceGroup) wf.Layout {
	var in wf.Layout
	for i := range job.MapBranches {
		if job.MapBranches[i].Tag == g.Tag {
			if stored, ok := e.DFS.Get(job.MapBranches[i].Input); ok {
				in = stored.Layout
			}
			break
		}
	}
	return wf.DeriveMapOnlyOutputLayout(in, *g, job.AlignMapToInput, job.Config)
}

// resolveSortFields resolves a tag's sort projection against an observed
// key width.
func resolveSortFields(rt *tagRuntime, key keyval.Tuple) []int {
	if rt.sortIdx == nil {
		rt.sortIdx = rt.group.Part.EffectiveSortFields(len(key))
	}
	return rt.sortIdx
}

// runCombiner applies the combine function to a sorted run, grouping on the
// full key, and returns the surviving pairs, input count, and CPU charged.
func runCombiner(combiner wf.Stage, sorted []keyval.Pair) ([]keyval.Pair, int64, float64) {
	var out []keyval.Pair
	emit := func(k, v keyval.Tuple) { out = append(out, keyval.Pair{Key: k, Value: v}) }
	i := 0
	var cpu float64
	for i < len(sorted) {
		j := i + 1
		for j < len(sorted) && keyval.Compare(sorted[i].Key, sorted[j].Key) == 0 {
			j++
		}
		vals := make([]keyval.Tuple, 0, j-i)
		for _, p := range sorted[i:j] {
			vals = append(vals, p.Value)
		}
		cpu += float64(j-i) * combiner.CPUPerRecord
		combiner.Reduce(sorted[i].Key, vals, emit)
		i = j
	}
	return out, int64(len(sorted)), cpu
}

func sampleSeed(jobID string, tag int) int64 {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{byte(tag), byte(tag >> 8)})
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
