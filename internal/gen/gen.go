// Package gen manufactures random annotated MapReduce workflows with
// materialized synthetic datasets, spanning the plan space Stubby's
// transformations rewrite: fan-in and fan-out DAG shapes, shared inputs,
// map-only and grouped jobs, every ops stage family, skewed and uniform
// key distributions, hash and range partition specs, sorted/partitioned/
// compressed base layouts, and randomized configurations. Each generated
// case is fully executable on the mrsim substrate, and the package's
// oracle (oracle.go) proves that any transformed or optimized plan
// computes the same final answers as the original — the execution-backed
// semantic-equivalence check the transformation and planner test suites
// are built on.
//
// Generation is a pure function of the seed: the same seed always yields
// byte-identical workflows, data, and descriptors, so any failure is
// reproducible from the seed the oracle prints. The planner equivalence
// suite's seeds (1–30) rerun against every planner with
// `go test -run 'TestGeneratedPlannerEquivalenceAndDominance/seedN$' -v ./internal/baselines`.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/ops"
	"github.com/stubby-mr/stubby/internal/wf"
)

// CorpusSeeds is the size of the committed seed corpus: seeds 1..CorpusSeeds
// have golden descriptors under testdata/gen/ at the repo root, and the
// same seeds prime this package's fuzz targets. Growing the corpus means
// bumping this one constant and regenerating the goldens with
// `go test -run TestGenCorpusDescriptors -update .`.
const CorpusSeeds = 16

// Options bounds the generated workflows.
type Options struct {
	// MinJobs/MaxJobs bound the job count (defaults 2 and 6).
	MinJobs, MaxJobs int
	// Records is the approximate record count per base dataset
	// (default 400; actual counts vary randomly around it).
	Records int
}

func (o Options) withDefaults() Options {
	if o.MinJobs <= 0 {
		o.MinJobs = 2
	}
	if o.MaxJobs < o.MinJobs {
		o.MaxJobs = o.MinJobs + 4
	}
	if o.Records <= 0 {
		o.Records = 400
	}
	return o
}

// Case is one generated workflow together with everything needed to
// execute and cost it.
type Case struct {
	// Seed reproduces the case exactly.
	Seed int64
	// Workflow is the unoptimized annotated plan.
	Workflow *wf.Workflow
	// DFS holds the materialized base datasets.
	DFS *mrsim.DFS
	// Cluster is a randomized evaluation cluster with VirtualScale mapping
	// the materialized bytes onto a multi-GB virtual dataset.
	Cluster *mrsim.Cluster
	// Canon maps sink dataset IDs to their canonicalization spec (e.g.
	// top-K rank keys are tie labels, not data).
	Canon map[string]mrsim.CanonSpec
}

// fieldKind classifies a generated field's dynamic type.
type fieldKind int

const (
	intKind fieldKind = iota
	strKind
	numKind // numeric, possibly float (derived aggregates)
)

func (k fieldKind) String() string {
	switch k {
	case intKind:
		return "int"
	case strKind:
		return "str"
	default:
		return "num"
	}
}

// fieldInfo tracks what the generator knows about one field: its globally
// unique name (names carry flow-through semantics in annotations, so two
// fields share a name only when they really hold the same data), its
// domain, and whether its values are integer-valued (exact — safe to
// pre-aggregate with a combiner) or unique within the dataset (safe to
// rank without ties).
type fieldInfo struct {
	name   string
	kind   fieldKind
	card   int // domain cardinality for generated fields; 0 = derived/unknown
	exact  bool
	unique bool
}

// dsInfo is the generator's view of one dataset.
type dsInfo struct {
	id   string
	key  []fieldInfo
	val  []fieldInfo
	base bool
}

// pick is one selectable field of a dataset with its Rekey source.
type pick struct {
	f   fieldInfo
	src ops.Src
}

func picksOf(d *dsInfo) []pick {
	out := make([]pick, 0, len(d.key)+len(d.val))
	for i, f := range d.key {
		out = append(out, pick{f: f, src: ops.K(i)})
	}
	for i, f := range d.val {
		out = append(out, pick{f: f, src: ops.V(i)})
	}
	return out
}

type builder struct {
	rng    *rand.Rand
	opt    Options
	w      *wf.Workflow
	dfs    *mrsim.DFS
	pool   []*dsInfo
	labels map[string][]int // sink dataset -> tie-label key positions
	fieldN int
	baseN  int
	jobN   int
	stageN int
}

// Generate builds the case for a seed. It panics if the generator ever
// produces an invalid workflow — that is a generator bug, and the fuzz
// targets hunt for it.
func Generate(seed int64, opt Options) *Case {
	b := newBuilder(seed, fmt.Sprintf("GEN%d", seed), opt.withDefaults())
	b.drawWorkflow()
	return b.finish(seed)
}

// newBuilder starts the named workflow's builder on the seed's rng.
func newBuilder(seed int64, name string, opt Options) *builder {
	return &builder{
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed5eed)),
		opt:    opt,
		w:      &wf.Workflow{Name: name},
		dfs:    mrsim.NewDFS(),
		labels: map[string][]int{},
		jobN:   1,
	}
}

// drawWorkflow draws the base datasets and the job mix: all of Generate's
// workflow, and the prefix every Family member replays from the same seed.
func (b *builder) drawWorkflow() {
	// Base datasets; a shared key field across the first two enables joins.
	nBases := 1 + b.rng.Intn(3)
	var shared *fieldInfo
	first := b.genBase(nil)
	if nBases >= 2 && b.rng.Intn(10) < 6 {
		shared = &first.key[0]
	}
	for i := 1; i < nBases; i++ {
		b.genBase(shared)
		shared = nil
	}

	target := b.opt.MinJobs + b.rng.Intn(b.opt.MaxJobs-b.opt.MinJobs+1)
	for b.jobN <= target {
		in := b.pool[b.rng.Intn(len(b.pool))]
		switch r := b.rng.Intn(20); {
		case r < 4 && target-b.jobN >= 1: // chain: two jobs, vertical fodder
			b.chainAgg(in)
		case r < 7:
			if a, c, ok := b.joinPartners(); ok {
				b.join(a, c)
			} else {
				b.groupAgg(in)
			}
		case r < 10:
			if u, ok := b.uniqueInput(); ok {
				b.topK(u)
			} else {
				b.filterMap(in)
			}
		case r < 14:
			b.filterMap(in)
		default:
			b.groupAgg(in)
		}
	}
}

// finish validates the built workflow and wraps it, with the cluster drawn
// from the builder's rng as it stands, into the seed's case.
func (b *builder) finish(seed int64) *Case {
	if err := b.w.Validate(); err != nil {
		panic(fmt.Sprintf("gen: seed %d produced an invalid workflow %s: %v", seed, b.w.Name, err))
	}
	c := &Case{
		Seed:     seed,
		Workflow: b.w,
		DFS:      b.dfs,
		Cluster:  b.cluster(),
		Canon:    map[string]mrsim.CanonSpec{},
	}
	for _, d := range b.w.SinkDatasets() {
		c.Canon[d.ID] = mrsim.CanonSpec{LabelKeyFields: b.labels[d.ID]}
	}
	return c
}

// --- fields and data ---------------------------------------------------------

func (b *builder) fresh(prefix string, kind fieldKind, card int) fieldInfo {
	b.fieldN++
	return fieldInfo{name: fmt.Sprintf("%s%d", prefix, b.fieldN), kind: kind, card: card, exact: kind != numKind}
}

func (b *builder) stageName(prefix string) string {
	b.stageN++
	return fmt.Sprintf("%s%d", prefix, b.stageN)
}

func (b *builder) cpu() float64 {
	return (0.2 + b.rng.Float64()) * 1e-6
}

// fieldValue draws one value from a field's domain; draw is the skew-aware
// index generator for key fields.
func fieldValue(f fieldInfo, idx int) keyval.Field {
	if f.kind == strKind {
		return fmt.Sprintf("s%04d", idx)
	}
	return int64(idx)
}

// genBase materializes one base dataset on the DFS. shareKey, when
// non-nil, becomes the first key field (the same name and domain as
// another base — join fodder).
func (b *builder) genBase(shareKey *fieldInfo) *dsInfo {
	id := fmt.Sprintf("B%d", b.baseN)
	b.baseN++
	var key []fieldInfo
	if shareKey != nil {
		key = append(key, *shareKey)
	} else {
		kind := intKind
		if b.rng.Intn(4) == 0 {
			kind = strKind
		}
		key = append(key, b.fresh("k", kind, 8+b.rng.Intn(40)))
	}
	if b.rng.Intn(2) == 0 {
		key = append(key, b.fresh("k", intKind, 4+b.rng.Intn(12)))
	}
	n := b.opt.Records/2 + b.rng.Intn(b.opt.Records)
	val := []fieldInfo{b.fresh("v", intKind, 40)}
	uid := -1
	if b.rng.Intn(10) < 7 {
		f := b.fresh("u", intKind, n)
		f.unique = true
		uid = len(val)
		val = append(val, f)
	}
	if b.rng.Intn(10) < 4 {
		val = append(val, b.fresh("p", strKind, 30))
	}

	// Key skew: the first key field is zipf-distributed ~40% of the time.
	var zipf *rand.Zipf
	if key[0].card > 1 && b.rng.Intn(10) < 4 {
		zipf = rand.NewZipf(b.rng, 1.2, 4, uint64(key[0].card-1))
	}
	perm := b.rng.Perm(n)
	pairs := make([]keyval.Pair, n)
	for i := 0; i < n; i++ {
		k := make(keyval.Tuple, len(key))
		for ki, kf := range key {
			idx := b.rng.Intn(kf.card)
			if ki == 0 && zipf != nil {
				idx = int(zipf.Uint64())
			}
			k[ki] = fieldValue(kf, idx)
		}
		v := make(keyval.Tuple, len(val))
		for vi, vf := range val {
			if vi == uid {
				v[vi] = int64(perm[i])
				continue
			}
			v[vi] = fieldValue(vf, b.rng.Intn(vf.card))
		}
		pairs[i] = keyval.Pair{Key: k, Value: v}
	}

	keyNames := fieldNames(key)
	layout := wf.Layout{}
	switch b.rng.Intn(4) {
	case 1:
		layout = wf.Layout{PartType: keyval.HashPartition, PartFields: keyNames[:1], SortFields: keyNames[:1]}
		if len(keyNames) > 1 && b.rng.Intn(2) == 0 {
			layout.SortFields = keyNames[:2]
		}
	case 2:
		layout = wf.Layout{PartType: keyval.HashPartition, PartFields: keyNames[:1]}
	case 3:
		layout = wf.Layout{PartType: keyval.RangePartition, PartFields: keyNames[:1], SortFields: keyNames[:1]}
	}
	layout.Compressed = b.rng.Intn(4) == 0
	if err := b.dfs.Ingest(id, pairs, mrsim.IngestSpec{
		NumPartitions: 2 + b.rng.Intn(5),
		KeyFields:     keyNames,
		Layout:        layout,
	}); err != nil {
		panic(fmt.Sprintf("gen: ingest %s: %v", id, err))
	}
	stored, _ := b.dfs.Get(id)
	b.w.Datasets = append(b.w.Datasets, &wf.Dataset{
		ID: id, Base: true,
		Layout:    stored.Layout.Clone(),
		KeyFields: keyNames, ValueFields: fieldNames(val),
		EstRecords:    float64(stored.Records()),
		EstBytes:      float64(stored.Bytes()),
		EstPartitions: len(stored.Parts),
	})
	info := &dsInfo{id: id, key: key, val: val, base: true}
	b.pool = append(b.pool, info)
	return info
}

func fieldNames(fs []fieldInfo) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.name
	}
	return out
}

// --- jobs --------------------------------------------------------------------

func (b *builder) randConfig(hasCombiner bool) wf.Config {
	cfg := wf.Config{
		NumReduceTasks: 1 + b.rng.Intn(8),
		SplitSizeMB:    []int{16, 32, 64, 128}[b.rng.Intn(4)],
		SortBufferMB:   []int{50, 100, 200}[b.rng.Intn(3)],
		IOSortFactor:   []int{5, 10, 25}[b.rng.Intn(3)],
	}
	cfg.UseCombiner = hasCombiner && b.rng.Intn(2) == 0
	cfg.CompressMapOutput = b.rng.Intn(4) == 0
	cfg.CompressOutput = b.rng.Intn(4) == 0
	return cfg
}

// splitPoints draws 1-3 strictly ascending points from a field's domain
// (or a default int domain when unknown). Any ascending points are a valid
// range partitioning; balance only affects cost, never semantics.
func (b *builder) splitPoints(f fieldInfo) []keyval.Tuple {
	domain := f.card
	if domain < 4 {
		domain = 50
	}
	n := 1 + b.rng.Intn(3)
	seen := map[int]bool{}
	var idxs []int
	for len(idxs) < n {
		i := 1 + b.rng.Intn(domain-1)
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	out := make([]keyval.Tuple, len(idxs))
	for i, idx := range idxs {
		out[i] = keyval.T(fieldValue(f, idx))
	}
	return out
}

// randPartSpec draws a partition spec for a group whose map-output key is
// groupKey and whose reduce stage groups on the first gw fields. Every
// choice keeps equal group keys co-located and contiguous; in particular,
// when the grouping is a proper key prefix (gw < kw) the partition fields
// must stay inside that prefix — the zero spec (hash on the full key)
// would scatter one logical group across reduce partitions and make the
// job's output depend on its reducer count.
func (b *builder) randPartSpec(groupKey []fieldInfo, gw int) keyval.PartitionSpec {
	kw := len(groupKey)
	fallback := keyval.PartitionSpec{}
	if gw < kw {
		fallback = keyval.PartitionSpec{Type: keyval.HashPartition, KeyFields: identityInts(gw)}
	}
	switch b.rng.Intn(4) {
	case 1: // hash on a nonempty subset of the grouped prefix
		m := 1 + b.rng.Intn(gw)
		idx := b.rng.Perm(gw)[:m]
		sort.Ints(idx)
		return keyval.PartitionSpec{Type: keyval.HashPartition, KeyFields: idx}
	case 2: // explicit full-key sort permutation (whole-key grouping only)
		if gw == kw {
			return keyval.PartitionSpec{SortFields: b.rng.Perm(kw)}
		}
		return fallback
	case 3: // range on the first grouped field
		return keyval.PartitionSpec{
			Type:        keyval.RangePartition,
			KeyFields:   []int{0},
			SplitPoints: b.splitPoints(groupKey[0]),
		}
	default:
		return fallback
	}
}

func (b *builder) addJob(branches []wf.MapBranch, groups []wf.ReduceGroup, cfg wf.Config) {
	id := fmt.Sprintf("J%d", b.jobN)
	b.jobN++
	b.w.Jobs = append(b.w.Jobs, &wf.Job{
		ID: id, Config: cfg, Origin: []string{id},
		MapBranches: branches, ReduceGroups: groups,
	})
}

func (b *builder) addDS(key, val []fieldInfo) *dsInfo {
	id := fmt.Sprintf("D%d", b.jobN)
	b.w.Datasets = append(b.w.Datasets, &wf.Dataset{
		ID: id, KeyFields: fieldNames(key), ValueFields: fieldNames(val),
	})
	info := &dsInfo{id: id, key: key, val: val}
	b.pool = append(b.pool, info)
	return info
}

// keyablePicks returns the fields usable as group keys: int/str typed and
// (for derived numerics) still hashable/comparable — floats from Avg are
// excluded to keep group identities exact.
func keyablePicks(d *dsInfo) []pick {
	var out []pick
	for _, p := range picksOf(d) {
		if p.f.kind == intKind || p.f.kind == strKind {
			out = append(out, p)
		}
	}
	return out
}

func numericPicks(d *dsInfo) []pick {
	var out []pick
	for _, p := range picksOf(d) {
		if p.f.kind != strKind {
			out = append(out, p)
		}
	}
	return out
}

// chooseDistinct picks n distinct elements preserving a random order.
func (b *builder) chooseDistinct(ps []pick, n int) []pick {
	idx := b.rng.Perm(len(ps))[:n]
	out := make([]pick, n)
	for i, j := range idx {
		out[i] = ps[j]
	}
	return out
}

// groupAgg emits one grouped aggregation job over in: map-side Rekey onto
// a random group key, reduce-side Sum / Count / Avg / SumAndMax /
// DistinctMark (or a projected-grouping variant), with a matching
// combiner where the aggregate is exactly combinable.
func (b *builder) groupAgg(in *dsInfo) *dsInfo {
	keyables := keyablePicks(in)
	if len(keyables) == 0 {
		return b.filterMap(in)
	}
	ngk := 1
	if len(keyables) > 1 && b.rng.Intn(2) == 0 {
		ngk = 2
	}
	gk := b.chooseDistinct(keyables, ngk)
	nums := numericPicks(in)
	var numP pick
	if len(nums) > 0 {
		numP = nums[b.rng.Intn(len(nums))]
	} else {
		numP = keyables[0] // Count ignores the value anyway
	}

	keyFrom := make([]ops.Src, len(gk))
	groupKey := make([]fieldInfo, len(gk))
	for i, p := range gk {
		keyFrom[i] = p.src
		groupKey[i] = p.f
	}
	mapStage := ops.Rekey(b.stageName("M"), b.cpu(), keyFrom, []ops.Src{numP.src})
	branch := wf.MapBranch{
		Tag: 0, Input: in.id,
		Stages: []wf.Stage{mapStage},
		KeyIn:  fieldNames(in.key), ValIn: fieldNames(in.val),
		KeyOut: fieldNames(groupKey), ValOut: []string{numP.f.name},
	}

	gw := len(groupKey)
	var reduce wf.Stage
	var combiner *wf.Stage
	outKey := groupKey
	var outVal []fieldInfo
	exact := numP.f.exact
	switch r := b.rng.Intn(10); {
	case r < 3: // sum (+ combiner when exactly combinable)
		reduce = ops.Sum(b.stageName("R"), b.cpu(), 0)
		if exact {
			combiner = stagePtr(ops.SumCombiner(b.stageName("C"), b.cpu(), 0))
		}
		f := b.fresh("n", numKind, 0)
		f.exact = exact
		outVal = []fieldInfo{f}
	case r < 5: // count
		reduce = ops.Count(b.stageName("R"), b.cpu())
		outVal = []fieldInfo{b.fresh("n", intKind, 0)}
	case r < 6: // avg: float-valued output
		reduce = ops.Avg(b.stageName("R"), b.cpu(), 0)
		outVal = []fieldInfo{b.fresh("a", numKind, 0)}
	case r < 8: // sum and max
		reduce = ops.SumAndMax(b.stageName("R"), b.cpu(), 0)
		fs, fm := b.fresh("n", numKind, 0), b.fresh("m", numKind, 0)
		fs.exact, fm.exact = exact, exact
		outVal = []fieldInfo{fs, fm}
	case r < 9 && len(groupKey) == 2: // projected grouping on the first field
		gw = 1
		if exact {
			reduce = projSum(b.stageName("R"), b.cpu(), gw, 0)
		} else {
			reduce = projCount(b.stageName("R"), b.cpu(), gw)
		}
		outKey = groupKey[:1]
		f := b.fresh("n", numKind, 0)
		f.exact = true
		outVal = []fieldInfo{f}
	default: // distinct-group mark: constant key, duplicate tuples galore
		reduce = ops.DistinctMark(b.stageName("R"), b.cpu())
		ck := b.fresh("c", intKind, 1)
		outKey = []fieldInfo{ck}
		outVal = []fieldInfo{b.fresh("o", intKind, 1)}
	}

	out := b.addDS(outKey, outVal)
	group := wf.ReduceGroup{
		Tag: 0, Output: out.id,
		Stages:   []wf.Stage{reduce},
		Combiner: combiner,
		Part:     b.randPartSpec(groupKey, gw),
		KeyIn:    fieldNames(groupKey), ValIn: []string{numP.f.name},
		KeyOut: fieldNames(outKey), ValOut: fieldNames(outVal),
	}
	b.addJob([]wf.MapBranch{branch}, []wf.ReduceGroup{group}, b.randConfig(combiner != nil))
	return out
}

// filterMap emits one map-only job over in: an optional interval filter
// (with a truthful Filter annotation, enabling partition pruning and
// filter-aligned partition specs upstream) plus a projection that keeps
// all key fields, and occasionally an extra Identity stage.
func (b *builder) filterMap(in *dsInfo) *dsInfo {
	keyFrom := make([]ops.Src, len(in.key))
	for i := range in.key {
		keyFrom[i] = ops.K(i)
	}
	outKey := append([]fieldInfo(nil), in.key...)
	var valFrom []ops.Src
	var outVal []fieldInfo
	for i, f := range in.val {
		if len(outVal) == 0 || b.rng.Intn(2) == 0 {
			valFrom = append(valFrom, ops.V(i))
			outVal = append(outVal, f)
		}
	}

	var stages []wf.Stage
	var filter *wf.Filter
	if in.key[0].kind == intKind && in.key[0].card > 2 && b.rng.Intn(4) < 3 {
		card := in.key[0].card
		lo := b.rng.Intn(card - 1)
		hi := lo + 1 + b.rng.Intn(card-lo)
		iv := keyval.Interval{Lo: int64(lo), Hi: int64(hi)}
		if b.rng.Intn(4) == 0 {
			iv.Lo = nil
		}
		if iv.Lo != nil && b.rng.Intn(4) == 0 {
			iv.Hi = nil
		}
		filter = &wf.Filter{Field: in.key[0].name, Interval: iv}
		stages = append(stages, ops.FilterInterval(b.stageName("F"), b.cpu(), ops.K(0), iv, keyFrom, valFrom))
	} else {
		stages = append(stages, ops.Rekey(b.stageName("M"), b.cpu(), keyFrom, valFrom))
	}
	if b.rng.Intn(4) == 0 {
		stages = append(stages, ops.Identity(b.stageName("I"), b.cpu()))
	}

	out := b.addDS(outKey, outVal)
	branch := wf.MapBranch{
		Tag: 0, Input: in.id,
		Stages: stages,
		Filter: filter,
		KeyIn:  fieldNames(in.key), ValIn: fieldNames(in.val),
		KeyOut: fieldNames(outKey), ValOut: fieldNames(outVal),
	}
	group := wf.ReduceGroup{
		Tag: 0, Output: out.id,
		KeyIn: fieldNames(outKey), ValIn: fieldNames(outVal),
		KeyOut: fieldNames(outKey), ValOut: fieldNames(outVal),
	}
	b.addJob([]wf.MapBranch{branch}, []wf.ReduceGroup{group}, b.randConfig(false))
	return out
}

// chainAgg emits a two-job chain engineered so the second job's grouping
// key flows unchanged through the first job's reduce — the intra-job
// vertical packing precondition (Section 3.1): J_a groups on (x, y) and
// emits both fields; J_b regroups on one of them.
func (b *builder) chainAgg(in *dsInfo) {
	keyables := keyablePicks(in)
	if len(keyables) < 2 {
		b.groupAgg(in)
		return
	}
	gk := b.chooseDistinct(keyables, 2)
	nums := numericPicks(in)
	numP := keyables[0]
	if len(nums) > 0 {
		numP = nums[b.rng.Intn(len(nums))]
	}
	groupKey := []fieldInfo{gk[0].f, gk[1].f}
	branch := wf.MapBranch{
		Tag: 0, Input: in.id,
		Stages: []wf.Stage{ops.Rekey(b.stageName("M"), b.cpu(), []ops.Src{gk[0].src, gk[1].src}, []ops.Src{numP.src})},
		KeyIn:  fieldNames(in.key), ValIn: fieldNames(in.val),
		KeyOut: fieldNames(groupKey), ValOut: []string{numP.f.name},
	}
	sumF := b.fresh("n", numKind, 0)
	sumF.exact = numP.f.exact
	var combiner *wf.Stage
	if sumF.exact && b.rng.Intn(2) == 0 {
		combiner = stagePtr(ops.SumCombiner(b.stageName("C"), b.cpu(), 0))
	}
	mid := b.addDS(groupKey, []fieldInfo{sumF})
	b.addJob([]wf.MapBranch{branch}, []wf.ReduceGroup{{
		Tag: 0, Output: mid.id,
		Stages:   []wf.Stage{ops.Sum(b.stageName("R"), b.cpu(), 0)},
		Combiner: combiner,
		Part:     b.randPartSpec(groupKey, 2),
		KeyIn:    fieldNames(groupKey), ValIn: []string{numP.f.name},
		KeyOut: fieldNames(groupKey), ValOut: []string{sumF.name},
	}}, b.randConfig(combiner != nil))

	// Consumer: regroup on one surviving key field and aggregate the sums.
	keep := b.rng.Intn(2)
	regroup := []fieldInfo{groupKey[keep]}
	cBranch := wf.MapBranch{
		Tag: 0, Input: mid.id,
		Stages: []wf.Stage{ops.Rekey(b.stageName("M"), b.cpu(), []ops.Src{ops.K(keep)}, []ops.Src{ops.V(0)})},
		KeyIn:  fieldNames(groupKey), ValIn: []string{sumF.name},
		KeyOut: fieldNames(regroup), ValOut: []string{sumF.name},
	}
	outF := b.fresh("n", numKind, 0)
	outF.exact = sumF.exact
	var reduce wf.Stage
	if b.rng.Intn(3) == 0 {
		reduce = ops.Count(b.stageName("R"), b.cpu())
		outF = b.fresh("n", intKind, 0)
	} else {
		reduce = ops.Sum(b.stageName("R"), b.cpu(), 0)
	}
	out := b.addDS(regroup, []fieldInfo{outF})
	b.addJob([]wf.MapBranch{cBranch}, []wf.ReduceGroup{{
		Tag: 0, Output: out.id,
		Stages: []wf.Stage{reduce},
		Part:   b.randPartSpec(regroup, 1),
		KeyIn:  fieldNames(regroup), ValIn: []string{sumF.name},
		KeyOut: fieldNames(regroup), ValOut: []string{outF.name},
	}}, b.randConfig(false))
}

// joinPartners finds two pool datasets sharing their first key field name
// (the same logical column), or one dataset to self-join.
func (b *builder) joinPartners() (a, c *dsInfo, ok bool) {
	var pairs [][2]*dsInfo
	for i, x := range b.pool {
		for j, y := range b.pool {
			if i < j && x.key[0].name == y.key[0].name {
				pairs = append(pairs, [2]*dsInfo{x, y})
			}
		}
	}
	if len(pairs) > 0 && b.rng.Intn(10) < 8 {
		p := pairs[b.rng.Intn(len(pairs))]
		return p[0], p[1], true
	}
	// Self-join: both branches scan the same dataset under one tag.
	if b.rng.Intn(2) == 0 {
		d := b.pool[b.rng.Intn(len(b.pool))]
		if len(keyablePicks(d)) > 0 {
			return d, d, true
		}
	}
	return nil, nil, false
}

// join emits a repartition join of a and c on their shared first key field
// (for a self-join, on any keyable field): two tagged branches mark their
// side, one reduce group emits the per-key cross product.
func (b *builder) join(a, c *dsInfo) *dsInfo {
	side := b.fresh("t", strKind, 2)
	jk := a.key[0]
	jkSrcA, jkSrcC := ops.K(0), ops.K(0)
	if a == c {
		ks := keyablePicks(a)
		p := ks[b.rng.Intn(len(ks))]
		jk, jkSrcA, jkSrcC = p.f, p.src, p.src
	}

	mkBranch := func(d *dsInfo, jkSrc ops.Src, mark string, maxVals int) (wf.MapBranch, []fieldInfo) {
		var valFrom []ops.Src
		var outVal []fieldInfo
		for i, f := range d.val {
			if len(outVal) < maxVals && (len(outVal) == 0 || b.rng.Intn(2) == 0) {
				valFrom = append(valFrom, ops.V(i))
				outVal = append(outVal, f)
			}
		}
		if len(outVal) == 0 { // datasets always have >=1 value field, but be safe
			valFrom = append(valFrom, ops.K(0))
			outVal = append(outVal, d.key[0])
		}
		// A cross product duplicates values, so uniqueness does not survive
		// a join — downstream top-K must not treat these as tie-free scores.
		for i := range outVal {
			outVal[i].unique = false
		}
		br := wf.MapBranch{
			Tag: 0, Input: d.id,
			Stages: []wf.Stage{
				ops.Rekey(b.stageName("M"), b.cpu(), []ops.Src{jkSrc}, valFrom),
				ops.TagValue(b.stageName("T"), b.cpu(), mark),
			},
			KeyIn: fieldNames(d.key), ValIn: fieldNames(d.val),
			KeyOut: []string{jk.name},
			ValOut: append([]string{side.name}, fieldNames(outVal)...),
		}
		return br, outVal
	}
	brA, valsA := mkBranch(a, jkSrcA, "L", 2)
	brC, valsC := mkBranch(c, jkSrcC, "R", 2)

	outKey := []fieldInfo{jk}
	outVal := append(append([]fieldInfo(nil), valsA...), valsC...)
	out := b.addDS(outKey, outVal)
	group := wf.ReduceGroup{
		Tag: 0, Output: out.id,
		Stages: []wf.Stage{joinStage(b.stageName("J"), b.cpu(), "L", 64)},
		Part:   b.randPartSpec(outKey, 1),
		KeyIn:  []string{jk.name},
		KeyOut: []string{jk.name}, ValOut: fieldNames(outVal),
	}
	b.addJob([]wf.MapBranch{brA, brC}, []wf.ReduceGroup{group}, b.randConfig(false))
	return out
}

// uniqueInput finds a pool dataset carrying a unique numeric field — a
// tie-free ranking score.
func (b *builder) uniqueInput() (*dsInfo, bool) {
	var cands []*dsInfo
	for _, d := range b.pool {
		for _, f := range d.val {
			if f.unique {
				cands = append(cands, d)
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	return cands[b.rng.Intn(len(cands))], true
}

// topK emits the scalable top-K pattern: a map-side LocalTopK per task
// stream feeding a single-group MergeTopK. The score field is unique, so
// the selected set and its ranks are plan-invariant; the rank key is still
// registered as a tie label for the oracle.
func (b *builder) topK(in *dsInfo) *dsInfo {
	scoreIdx := -1
	for i, f := range in.val {
		if f.unique {
			scoreIdx = i
			break
		}
	}
	score := in.val[scoreIdx]
	k := 3 + b.rng.Intn(6)

	constF := b.fresh("c", intKind, 1)
	valFrom := []ops.Src{ops.V(scoreIdx)}
	outVal := []fieldInfo{score}
	for i, f := range in.val {
		if i != scoreIdx && b.rng.Intn(2) == 0 {
			valFrom = append(valFrom, ops.V(i))
			outVal = append(outVal, f)
		}
	}
	branch := wf.MapBranch{
		Tag: 0, Input: in.id,
		Stages: []wf.Stage{
			ops.Rekey(b.stageName("M"), b.cpu(), []ops.Src{ops.K(0)}, valFrom),
			ops.LocalTopK(b.stageName("L"), b.cpu(), k, 0),
		},
		KeyIn: fieldNames(in.key), ValIn: fieldNames(in.val),
		KeyOut: []string{constF.name}, ValOut: fieldNames(outVal),
	}
	rankF := b.fresh("r", intKind, k)
	out := b.addDS([]fieldInfo{rankF}, outVal)
	group := wf.ReduceGroup{
		Tag: 0, Output: out.id,
		Stages: []wf.Stage{ops.MergeTopK(b.stageName("G"), b.cpu(), k, 0)},
		KeyIn:  []string{constF.name}, ValIn: fieldNames(outVal),
		KeyOut: []string{rankF.name}, ValOut: fieldNames(outVal),
	}
	b.addJob([]wf.MapBranch{branch}, []wf.ReduceGroup{group}, b.randConfig(false))
	b.labels[out.id] = []int{0}
	return out
}

// cluster randomizes the evaluation cluster and maps the materialized
// bytes onto a multi-GB virtual dataset so cost dynamics (waves, spills,
// shuffle volume) resemble the paper's regime.
func (b *builder) cluster() *mrsim.Cluster {
	c := mrsim.DefaultCluster()
	c.Nodes = 10 + b.rng.Intn(41)
	if b.rng.Intn(4) == 0 {
		c.TaskSetupSec = 0
	}
	var bytes float64
	for _, id := range b.dfs.IDs() {
		stored, _ := b.dfs.Get(id)
		bytes += float64(stored.Bytes())
	}
	if bytes > 0 {
		virtGB := float64(2 + b.rng.Intn(11))
		c.VirtualScale = virtGB * 1e9 / bytes
	}
	return c
}
