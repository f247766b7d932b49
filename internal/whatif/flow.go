package whatif

import (
	"fmt"
	"math"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
)

// This file is the flow layer of the estimator: everything about one job
// that does not depend on when the cluster can run it — input pruning, tag
// flow, the combiner model, skew, task counts, average and straggler task
// durations, and output dataset estimates. The result is a jobCard; the
// scheduling layer (schedule.go) turns cards into start/end times. Keeping
// this layer pure (a function of the job and its input dataset estimates
// only) is what lets Prepared reuse cards across configuration-search
// probes.
//
// The layer allocates no bookkeeping of its own: the per-input and per-tag
// working sets are scratch slices the Estimator owns and rewrites on every
// call, and a card's input snapshot and output estimates share one backing
// slice of exact size. When a memoized card's inputs no longer match,
// Estimator.card recomputes flow into that card's storage rather than a new
// one, so a card is stable only until its job is walked again. Memo storage
// also outlives the memo: a closed Prepared (and a finished Robustness)
// hands its cards and cleared table back to the Estimator, and the next
// Prepared's new cards are those cards, rewritten — on a tuning worker's
// estimator, the next subplan's search reuses the last one's storage.

// jobCard is the flow layer's answer for one job: the task counts and
// durations scheduling needs, plus the output dataset estimates downstream
// jobs consume. A card is read only during its own job's walk step (walk
// publishes value copies), which is what lets the memo recompute it in
// place.
type jobCard struct {
	mapTasks    int
	reduceTasks int // 0 for a map-only job
	// avgMapDur / maxMapDur are mean and straggler (input-skew-adjusted)
	// map task durations; avgRedDur / maxRedDur the reduce equivalents.
	avgMapDur, maxMapDur float64
	avgRedDur, maxRedDur float64
	// shuffleWire is the predicted on-wire shuffle volume.
	shuffleWire float64
	// inputs snapshots the input dataset estimates the card was computed
	// from, in job input order — Prepared's invalidation check.
	inputs []cardDataset
	// outputs are the job's output dataset estimates, in tag order. It
	// shares inputs' backing array (inputs' capacity spans both).
	outputs []cardDataset
}

type cardDataset struct {
	id  string
	est DatasetEstimate
}

// inputsMatch reports whether the card's captured input estimates equal the
// current ones — if so, the card (a pure function of job and inputs) is
// reusable as-is for an unchanged job.
func (cd *jobCard) inputsMatch(datasets map[string]*DatasetEstimate) bool {
	for i := range cd.inputs {
		cur := datasets[cd.inputs[i].id]
		if cur == nil || !datasetEstimateEqual(*cur, cd.inputs[i].est) {
			return false
		}
	}
	return true
}

func datasetEstimateEqual(a, b DatasetEstimate) bool {
	return a.Records == b.Records && a.Bytes == b.Bytes &&
		a.Partitions == b.Partitions && a.MaxPartShare == b.MaxPartShare &&
		layoutEqual(a.Layout, b.Layout)
}

func layoutEqual(a, b wf.Layout) bool {
	if a.PartType != b.PartType || a.Compressed != b.Compressed ||
		!wf.FieldsEqual(a.PartFields, b.PartFields) ||
		!wf.FieldsEqual(a.SortFields, b.SortFields) ||
		len(a.SplitPoints) != len(b.SplitPoints) {
		return false
	}
	for i := range a.SplitPoints {
		if keyval.Compare(a.SplitPoints[i], b.SplitPoints[i]) != 0 {
			return false
		}
	}
	return true
}

// inEst carries one distinct job input's volumes, after partition pruning,
// while estimating one job.
type inEst struct {
	id             string
	records, bytes float64
	compressed     bool
	parts          int
	layout         wf.Layout
	maxShare       float64
}

// tagEst carries per-tag flow predictions while estimating one job.
type tagEst struct {
	group         *wf.ReduceGroup
	numParts      int
	mapOutRecords float64
	mapOutBytes   float64
	outRecords    float64 // final pipeline output
	outBytes      float64
	maxShare      float64 // largest reduce-partition share (skew)
}

// findIn returns the scratch entry of input id. A job has a handful of
// inputs, so a linear scan beats a map.
func findIn(ins []inEst, id string) *inEst {
	for i := range ins {
		if ins[i].id == id {
			return &ins[i]
		}
	}
	return nil
}

// findTag returns the scratch entry of the group with the given tag.
func findTag(tags []tagEst, tag int) *tagEst {
	for i := range tags {
		if tags[i].group.Tag == tag {
			return &tags[i]
		}
	}
	return nil
}

// flowJob runs the flow layer for one job against the current dataset
// estimates and writes its duration card into card, reusing the card's
// dataset storage when it is large enough. inIDs are the job's distinct
// inputs in job input order (walkJob.ins). It performs no slot-pool
// operations; the arithmetic and its order are shared with the historical
// monolithic estimator, so card-based estimates are bit-identical to it. On
// error the card is left partly written and must be discarded.
func (e *Estimator) flowJob(job *wf.Job, inIDs []string, datasets map[string]*DatasetEstimate, card *jobCard) error {
	e.flowCards++
	c := e.Cluster
	cfg := job.Config
	n := len(inIDs) + len(job.ReduceGroups)
	buf := card.inputs[:cap(card.inputs)]
	if len(buf) < n {
		buf = make([]cardDataset, n)
	}
	*card = jobCard{inputs: buf[:len(inIDs)], outputs: buf[len(inIDs):n]}

	// --- input volumes, with pruning-fraction estimation ---
	ins := e.flowIns[:0]
	for i, in := range inIDs {
		de, ok := datasets[in]
		if !ok {
			return fmt.Errorf("no estimate for input %q", in)
		}
		card.inputs[i] = cardDataset{id: in, est: *de}
		frac := 1.0
		if !job.AlignMapToInput {
			frac = e.pruneKeepFraction(job, in, de.Layout)
		}
		parts := max(de.Partitions, 1)
		if frac < 1 {
			parts = max(1, int(frac*float64(parts)+0.5))
		}
		share := de.MaxPartShare
		if share <= 0 {
			share = 1 / float64(parts)
		}
		ins = append(ins, inEst{
			id:         in,
			records:    de.Records * frac,
			bytes:      de.Bytes * frac,
			compressed: de.Layout.Compressed,
			parts:      parts,
			layout:     de.Layout,
			maxShare:   share,
		})
	}
	e.flowIns = ins

	// --- map-side flow per tag, tags in ascending order ---
	tags := e.flowTags[:0]
	for i := range job.ReduceGroups {
		te := tagEst{group: &job.ReduceGroups[i], maxShare: 1}
		k := len(tags)
		tags = append(tags, te)
		for ; k > 0 && tags[k-1].group.Tag > te.group.Tag; k-- {
			tags[k] = tags[k-1]
		}
		tags[k] = te
	}
	e.flowTags = tags

	var totalMapCPU float64 // real seconds basis, scaled later
	for bi := range job.MapBranches {
		b := &job.MapBranches[bi]
		mp := job.Profile.MapProfile(*b)
		if mp == nil {
			return fmt.Errorf("missing map profile for tag %d input %s", b.Tag, b.Input)
		}
		in := findIn(ins, b.Input)
		te := findTag(tags, b.Tag)
		outRecs := in.records * mp.Selectivity
		te.mapOutRecords += outRecs
		te.mapOutBytes += outRecs * mp.OutBytesPerRecord
		totalMapCPU += in.records * mp.CPUPerRecord
	}

	// --- task counts ---
	numMapTasks := 0
	if job.AlignMapToInput {
		for i := range ins {
			if p := ins[i].parts; p > numMapTasks {
				numMapTasks = p
			}
		}
	} else {
		// Splits never cross partition boundaries (matching the executor):
		// each partition chunks independently into ceil(partBytes/split).
		// Iteration follows job input order — a deterministic order keeps
		// flow a pure function of (job, inputs), which card reuse and the
		// bitwise-equivalence bar both rely on.
		for i := range ins {
			in := &ins[i]
			perPart := c.Scale(in.bytes) / float64(in.parts)
			numMapTasks += in.parts * int(ceilDiv(perPart, float64(cfg.SplitSizeMB)*mrsim.MB))
		}
	}
	if numMapTasks < 1 {
		numMapTasks = 1
	}
	card.mapTasks = numMapTasks

	numReduce := job.NumReduceTasks()
	for i := range tags {
		tags[i].numParts = tags[i].group.Partitions(numReduce)
	}
	card.reduceTasks = numReduce

	// --- combiner, skew, reduce flow ---
	var mapWriteOnly float64 // map-only output bytes written by map tasks
	var combineCPU float64
	for i := range tags {
		te := &tags[i]
		g := te.group
		tag := g.Tag
		if g.MapOnly() {
			te.outRecords = te.mapOutRecords
			te.outBytes = te.mapOutBytes
			if g.RunsMapSide && len(g.Stages) > 0 {
				// Intra-packed pipeline: the grouped stages run map-side.
				rp := job.Profile.ReduceProfile(tag)
				if rp == nil {
					return fmt.Errorf("missing map-side group profile for tag %d", tag)
				}
				totalMapCPU += te.mapOutRecords * rp.CPUPerRecord
				te.outRecords = te.mapOutRecords * rp.Selectivity
				te.outBytes = te.outRecords * rp.OutBytesPerRecord
			}
			mapWriteOnly += te.outBytes
			continue
		}
		rp := job.Profile.ReduceProfile(tag)
		if rp == nil {
			return fmt.Errorf("missing reduce profile for tag %d", tag)
		}
		if cfg.UseCombiner && g.Combiner != nil && rp.CombineReduction > 0 && rp.CombineReduction < 1 {
			combineCPU += te.mapOutRecords * g.Combiner.CPUPerRecord
			reduction := combinerReduction(rp, te, numMapTasks)
			te.mapOutBytes *= reduction
			te.mapOutRecords *= reduction
		}
		te.maxShare = e.skewShare(job, tag, te)
		te.outRecords = te.mapOutRecords * rp.Selectivity
		te.outBytes = te.outRecords * rp.OutBytesPerRecord
	}

	// --- map task duration ---
	var readSec float64
	for i := range ins {
		readSec += c.DiskTime(c.Scale(ins[i].bytes), ins[i].compressed)
	}
	var shuffledBytes, shuffledRecords float64
	for i := range tags {
		if te := &tags[i]; !te.group.MapOnly() {
			shuffledBytes += te.mapOutBytes
			shuffledRecords += te.mapOutRecords
		}
	}
	mapDur := c.MapTaskCost(mrsim.MapTaskVolume{
		Tasks:      numMapTasks,
		ReadSec:    readSec,
		CPUSec:     c.Scale(totalMapCPU + combineCPU),
		OutRecords: c.Scale(shuffledRecords),
		OutBytes:   c.Scale(shuffledBytes),
		WriteBytes: c.Scale(mapWriteOnly),
	}, cfg).Total()
	card.avgMapDur = mapDur
	// Aligned map tasks inherit the input partitioning's load skew: the
	// biggest partition becomes the straggler map task.
	mapSkew := 1.0
	if job.AlignMapToInput {
		for i := range ins {
			if s := ins[i].maxShare * float64(numMapTasks); s > mapSkew {
				mapSkew = s
			}
		}
	}
	card.maxMapDur = c.TaskSetupSec + (mapDur-c.TaskSetupSec)*mapSkew

	if numReduce > 0 {
		card.avgRedDur, card.maxRedDur = e.reduceDurations(job, tags, numMapTasks)
		wire := c.Scale(shuffledBytes)
		if cfg.CompressMapOutput {
			wire *= c.CompressRatio
		}
		card.shuffleWire = wire
	}

	// --- output dataset estimates ---
	for i := range tags {
		te := &tags[i]
		g := te.group
		de := DatasetEstimate{Records: te.outRecords, Bytes: te.outBytes}
		if g.MapOnly() {
			de.Partitions = numMapTasks
			de.MaxPartShare = 1 / float64(max(numMapTasks, 1))
			var inLayout wf.Layout
			for bi := range job.MapBranches {
				if job.MapBranches[bi].Tag == g.Tag {
					in := findIn(ins, job.MapBranches[bi].Input)
					inLayout = in.layout
					if job.AlignMapToInput && in.maxShare > de.MaxPartShare {
						de.MaxPartShare = in.maxShare
					}
					break
				}
			}
			de.Layout = wf.DeriveMapOnlyOutputLayout(inLayout, *g, job.AlignMapToInput, cfg)
		} else {
			de.Partitions = te.numParts
			de.MaxPartShare = te.maxShare
			de.Layout = wf.DeriveGroupOutputLayout(*g, cfg)
		}
		card.outputs[i] = cardDataset{id: g.Output, est: de}
	}
	return nil
}

// combinerReduction models combiner effectiveness at the configured task
// granularity. The combiner runs per (map task, reduce partition) bucket
// and can only merge duplicate keys landing in the same bucket, so its
// output is the expected number of distinct keys per bucket: with Dp keys
// per partition and nb records per bucket, Dp*(1-(1-1/Dp)^nb). Spreading
// the same data over more tasks leaves fewer duplicates per bucket, which
// is why a constant profiled ratio would mislead the search.
func combinerReduction(rp *wf.PipelineProfile, te *tagEst, numMapTasks int) float64 {
	pre := te.mapOutRecords
	if pre <= 0 {
		return 1
	}
	reduction := rp.CombineReduction
	if rp.GroupsPerMapRecord > 0 && te.numParts > 0 && numMapTasks > 0 {
		d := pre * rp.GroupsPerMapRecord // distinct groups overall
		buckets := float64(numMapTasks * te.numParts)
		dp := d / float64(te.numParts) // distinct keys per partition
		nb := pre / buckets            // records per bucket
		var outPerBucket float64
		if dp <= 1 {
			outPerBucket = dp
			if nb < dp {
				outPerBucket = nb
			}
		} else {
			outPerBucket = dp * (1 - math.Pow(1-1/dp, nb))
		}
		if est := outPerBucket * buckets; est < pre {
			reduction = est / pre
		} else {
			reduction = 1
		}
	}
	if reduction > 1 {
		reduction = 1
	}
	if reduction < 1e-4 {
		reduction = 1e-4
	}
	return reduction
}

// reduceDurations computes average and straggler (skew-adjusted) reduce
// task durations: task setup plus, for each shuffling tag of tags (in
// ascending tag order), the Work() of mrsim.ReduceTaskCost on the tag's
// average (largest) partition, with one merge run per map task. Each tag is priced apart, its merge
// passes counted on its own bytes, and setup is added after the tags' work.
// That order is part of the estimate: pricing the tags as one task, or
// adding setup first, moves estimates by a few ulps.
func (e *Estimator) reduceDurations(job *wf.Job, tags []tagEst, numMapTasks int) (avg, max float64) {
	c := e.Cluster
	var avgWork, maxWork float64
	for i := range tags {
		te := &tags[i]
		if te.group.MapOnly() {
			continue
		}
		cpuPerRecord := job.Profile.ReduceProfile(te.group.Tag).CPUPerRecord
		inBytesAvg := c.Scale(te.mapOutBytes) / float64(te.numParts)
		inRecsAvg := c.Scale(te.mapOutRecords) / float64(te.numParts)
		outBytesAvg := c.Scale(te.outBytes) / float64(te.numParts)
		scale := te.maxShare * float64(te.numParts) // >= 1
		for i, f := range []float64{1, scale} {
			w := c.ReduceTaskCost(mrsim.ReduceTaskVolume{
				InBytes:  inBytesAvg * f,
				Runs:     numMapTasks,
				CPUSec:   inRecsAvg * f * cpuPerRecord,
				OutBytes: outBytesAvg * f,
			}, job.Config).Work()
			if i == 0 {
				avgWork += w
			} else {
				maxWork += w
			}
		}
	}
	return c.TaskSetupSec + avgWork, c.TaskSetupSec + maxWork
}

// skewShare estimates the largest partition share for a tag from the
// profile's map-output key sample: the frequency of the hottest projected
// partition key. Counting per projected key (rather than per partition)
// keeps the estimate free of the sampling-collision noise that would
// otherwise fabricate stragglers at high reducer counts, while still
// catching both hot-key skew and coarse partition fields with few distinct
// values (the limited-parallelism degradation of Section 3.1).
func (e *Estimator) skewShare(job *wf.Job, tag int, te *tagEst) float64 {
	mp := job.Profile.MapSide[tag]
	uniform := 1.0 / float64(max(te.numParts, 1))
	if mp == nil || len(mp.KeySample) == 0 || te.numParts <= 1 {
		return uniform
	}
	var share float64
	if te.group.Part.Type == keyval.RangePartition {
		// Split points are fixed, so counting sampled keys per partition
		// is an unbiased load estimate. Keys are content-based (sample and
		// split-point digests, not identity), so equal samples hit across
		// plan clones; the digests are memoized by address, which clones
		// share. Partition projects the key through the spec's key fields
		// before comparing to split points, so the fields are part of the
		// identity. numParts > 1 here, so the split points are non-empty.
		key := skewKey{
			ranged:   true,
			numParts: te.numParts,
			fields:   specFieldsHash(te.group.Part, len(mp.KeySample[0])),
			splits:   e.digest(te.group.Part.SplitPoints),
			sample:   e.digest(mp.KeySample),
		}
		if v, ok := e.skewCache[key]; ok {
			share = v
		} else {
			counts := make([]int, te.numParts)
			best := 0
			for _, k := range mp.KeySample {
				counts[te.group.Part.Partition(k, te.numParts)]++
			}
			for _, n := range counts {
				if n > best {
					best = n
				}
			}
			share = float64(best) / float64(len(mp.KeySample))
			e.skewCache[key] = share
		}
	} else {
		// Hash partitioning: count per projected key, not per partition —
		// partition-collision counting in a small sample would fabricate
		// stragglers at high reducer counts. Independent of the reducer
		// count, so cacheable across configuration search.
		key := skewKey{
			fields: specFieldsHash(te.group.Part, len(mp.KeySample[0])),
			sample: e.digest(mp.KeySample),
		}
		if v, ok := e.skewCache[key]; ok {
			share = v
		} else {
			fields := te.group.Part.EffectiveKeyFields(len(mp.KeySample[0]))
			counts := make(map[uint64]int, len(mp.KeySample))
			best := 0
			for _, k := range mp.KeySample {
				h := keyval.Hash(k, fields)
				counts[h]++
				if counts[h] > best {
					best = counts[h]
				}
			}
			share = float64(best) / float64(len(mp.KeySample))
			e.skewCache[key] = share
		}
	}
	if share < uniform {
		share = uniform
	}
	return share
}

// specFieldsHash digests the partition spec's effective key fields for the
// skew cache without materializing the identity projection (nil KeyFields
// means "all key fields of the sample's width"): cache-hit lookups on the
// per-sample search path must not allocate.
func specFieldsHash(spec keyval.PartitionSpec, width int) uint64 {
	if spec.KeyFields != nil {
		return keyval.HashInts(spec.KeyFields)
	}
	// Distinct-by-construction marker for the identity projection of this
	// width (explicit [0..width) specs recompute into their own entry; the
	// computed share is identical either way).
	return uint64(width)<<1 | 1
}

// pruneKeepFraction estimates the fraction of a dataset the job must read
// after partition pruning: the share of range partitions whose bounds
// overlap every filter annotation over that input.
func (e *Estimator) pruneKeepFraction(job *wf.Job, dsID string, layout wf.Layout) float64 {
	if layout.PartType != keyval.RangePartition || len(layout.PartFields) == 0 || len(layout.SplitPoints) == 0 {
		return 1
	}
	field := layout.PartFields[0]
	var filters []keyval.Interval
	for i := range job.MapBranches {
		b := &job.MapBranches[i]
		if b.Input != dsID {
			continue
		}
		if b.Filter == nil || b.Filter.Field != field {
			return 1 // some branch reads everything
		}
		filters = append(filters, b.Filter.Interval)
	}
	if len(filters) == 0 {
		return 1
	}
	// Partition i covers [SplitPoints[i-1], SplitPoints[i]), as in
	// keyval.RangeBounds, walked without materializing the bounds.
	sp := layout.SplitPoints
	kept := 0
	for i := 0; i <= len(sp); i++ {
		var pb keyval.PartitionBounds
		if i > 0 {
			pb.Lo = sp[i-1]
		}
		if i < len(sp) {
			pb.Hi = sp[i]
		}
		needed := false
		for _, f := range filters {
			if pb.FieldRangeOverlaps(f) {
				needed = true
				break
			}
		}
		if needed {
			kept++
		}
	}
	return float64(kept) / float64(len(sp)+1)
}
