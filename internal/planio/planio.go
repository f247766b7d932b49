package planio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// FormatName identifies the document format in its envelope.
const FormatName = "stubby-plan"

// FormatVersion is the current document version. Decode accepts only this
// version; the field exists so future revisions can migrate explicitly
// instead of misreading old documents.
const FormatVersion = 1

// document is the top-level JSON envelope.
type document struct {
	Format   string       `json:"format"`
	Version  int          `json:"version"`
	Name     string       `json:"name"`
	Jobs     []jobDoc     `json:"jobs"`
	Datasets []datasetDoc `json:"datasets"`
}

// fieldDoc encodes one tuple field exactly. int64 values travel as strings
// because JSON numbers lose precision beyond 2^53. Exactly one member is
// set; an all-zero fieldDoc decodes as the nil field.
type fieldDoc struct {
	Int   *string  `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

// tupleDoc encodes a tuple as an ordered field list. A nil tuple encodes as
// null, an empty tuple as [].
type tupleDoc []fieldDoc

type stageDoc struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "map" or "reduce"
	// GroupFields distinguishes nil (group on the whole key) from empty
	// (one group per stream) via pointer presence.
	GroupFields  *[]int  `json:"groupFields,omitempty"`
	CPUPerRecord float64 `json:"cpuPerRecord"`
}

type filterDoc struct {
	Field string    `json:"field"`
	Lo    *fieldDoc `json:"lo,omitempty"`
	Hi    *fieldDoc `json:"hi,omitempty"`
}

type branchDoc struct {
	Tag    int        `json:"tag"`
	Input  string     `json:"input"`
	Stages []stageDoc `json:"stages"`
	Filter *filterDoc `json:"filter,omitempty"`
	KeyIn  *[]string  `json:"keyIn,omitempty"`
	ValIn  *[]string  `json:"valIn,omitempty"`
	KeyOut *[]string  `json:"keyOut,omitempty"`
	ValOut *[]string  `json:"valOut,omitempty"`
}

type partitionSpecDoc struct {
	Type        string     `json:"type"` // "hash" or "range"
	KeyFields   *[]int     `json:"keyFields,omitempty"`
	SortFields  *[]int     `json:"sortFields,omitempty"`
	SplitPoints []tupleDoc `json:"splitPoints,omitempty"`
}

type constraintDoc struct {
	CoGroup     *[]string `json:"coGroup,omitempty"`
	SortPrefix  *[]string `json:"sortPrefix,omitempty"`
	RequireType *string   `json:"requireType,omitempty"`
	Reason      string    `json:"reason"`
}

type groupDoc struct {
	Tag         int              `json:"tag"`
	Stages      []stageDoc       `json:"stages"`
	RunsMapSide bool             `json:"runsMapSide,omitempty"`
	Combiner    *stageDoc        `json:"combiner,omitempty"`
	Output      string           `json:"output"`
	Part        partitionSpecDoc `json:"part"`
	Constraints []constraintDoc  `json:"constraints,omitempty"`
	KeyIn       *[]string        `json:"keyIn,omitempty"`
	ValIn       *[]string        `json:"valIn,omitempty"`
	KeyOut      *[]string        `json:"keyOut,omitempty"`
	ValOut      *[]string        `json:"valOut,omitempty"`
}

type pipelineProfileDoc struct {
	Selectivity        float64    `json:"selectivity"`
	CPUPerRecord       float64    `json:"cpuPerRecord"`
	OutBytesPerRecord  float64    `json:"outBytesPerRecord"`
	InBytesPerRecord   float64    `json:"inBytesPerRecord"`
	GroupsPerRecord    float64    `json:"groupsPerRecord,omitempty"`
	GroupsPerMapRecord float64    `json:"groupsPerMapRecord,omitempty"`
	CombineReduction   float64    `json:"combineReduction,omitempty"`
	KeySample          []tupleDoc `json:"keySample,omitempty"`
}

type jobProfileDoc struct {
	// MapSide and ReduceSide are keyed by decimal tag.
	MapSide        map[string]*pipelineProfileDoc `json:"mapSide,omitempty"`
	MapSideByInput map[string]*pipelineProfileDoc `json:"mapSideByInput,omitempty"`
	ReduceSide     map[string]*pipelineProfileDoc `json:"reduceSide,omitempty"`
}

type jobDoc struct {
	ID               string         `json:"id"`
	MapBranches      []branchDoc    `json:"mapBranches"`
	ReduceGroups     []groupDoc     `json:"reduceGroups"`
	Config           wf.Config      `json:"config"`
	Profile          *jobProfileDoc `json:"profile,omitempty"`
	AlignMapToInput  bool           `json:"alignMapToInput,omitempty"`
	ReduceCountGroup string         `json:"reduceCountGroup,omitempty"`
	PinnedReducers   bool           `json:"pinnedReducers,omitempty"`
	Origin           []string       `json:"origin,omitempty"`
}

type layoutDoc struct {
	PartType    string     `json:"partType"`
	PartFields  *[]string  `json:"partFields,omitempty"`
	SortFields  *[]string  `json:"sortFields,omitempty"`
	SplitPoints []tupleDoc `json:"splitPoints,omitempty"`
	Compressed  bool       `json:"compressed,omitempty"`
}

type datasetDoc struct {
	ID            string    `json:"id"`
	Base          bool      `json:"base,omitempty"`
	Layout        layoutDoc `json:"layout"`
	KeyFields     *[]string `json:"keyFields,omitempty"`
	ValueFields   *[]string `json:"valueFields,omitempty"`
	EstRecords    float64   `json:"estRecords,omitempty"`
	EstBytes      float64   `json:"estBytes,omitempty"`
	EstPartitions int       `json:"estPartitions,omitempty"`
}

// Encode serializes the plan to indented JSON. The output is deterministic
// for a given workflow, so byte equality of encodings is a meaningful
// structural-equality check.
func Encode(w *wf.Workflow) ([]byte, error) {
	doc, err := encodeDoc(w)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(doc, "", "  ")
}

// EncodeTo writes the encoded plan to w.
func EncodeTo(dst io.Writer, w *wf.Workflow) error {
	data, err := Encode(w)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = dst.Write(data)
	return err
}

// Decode reconstructs an executable plan, binding every stage function
// through the registry. It returns a *MissingError listing unresolved stage
// names if the registry is incomplete, and validates the result.
func Decode(data []byte, reg *Registry) (*wf.Workflow, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	return decode(data, reg, false)
}

// DecodeFrom reads one plan document from r and decodes it like Decode.
func DecodeFrom(r io.Reader, reg *Registry) (*wf.Workflow, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("planio: read: %w", err)
	}
	return Decode(data, reg)
}

// DecodeStructure reconstructs the plan with inert placeholder functions.
// The result carries every annotation and can be costed and optimized, but
// executing it panics. This is the natural mode for an optimizer service
// that receives plans from remote workflow generators (the paper's Figure
// 2 deployment) without sharing their code.
func DecodeStructure(data []byte) (*wf.Workflow, error) {
	return decode(data, NewRegistry(), true)
}

func decode(data []byte, reg *Registry, structureOnly bool) (*wf.Workflow, error) {
	var doc document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("planio: parse: %w", err)
	}
	return decodeDocument(&doc, reg, structureOnly)
}

// decodeDocument reconstructs a plan from an already-parsed document — the
// shared tail of Decode/DecodeStructure and of the wire envelopes that
// embed plan documents (requests and results).
func decodeDocument(doc *document, reg *Registry, structureOnly bool) (*wf.Workflow, error) {
	if doc.Format != FormatName {
		return nil, fmt.Errorf("planio: not a %s document (format %q)", FormatName, doc.Format)
	}
	if doc.Version != FormatVersion {
		return nil, fmt.Errorf("planio: unsupported version %d (want %d)", doc.Version, FormatVersion)
	}
	d := &decoder{reg: reg, structureOnly: structureOnly, missing: map[string]bool{}}
	w, err := d.workflow(doc)
	if err != nil {
		return nil, err
	}
	if len(d.missing) > 0 {
		return nil, newMissingError(d.missing)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("planio: decoded plan invalid: %w", err)
	}
	return w, nil
}

// --- encoding ----------------------------------------------------------------

func encodeDoc(w *wf.Workflow) (*document, error) {
	doc := &document{Format: FormatName, Version: FormatVersion, Name: w.Name}
	for _, j := range w.Jobs {
		jd, err := encodeJob(j)
		if err != nil {
			return nil, err
		}
		doc.Jobs = append(doc.Jobs, *jd)
	}
	for _, ds := range w.Datasets {
		doc.Datasets = append(doc.Datasets, encodeDataset(ds))
	}
	return doc, nil
}

func encodeJob(j *wf.Job) (*jobDoc, error) {
	jd := &jobDoc{
		ID:               j.ID,
		Config:           j.Config,
		Profile:          encodeProfile(j.Profile),
		AlignMapToInput:  j.AlignMapToInput,
		ReduceCountGroup: j.ReduceCountGroup,
		PinnedReducers:   j.PinnedReducers,
		Origin:           append([]string(nil), j.Origin...),
	}
	for _, b := range j.MapBranches {
		bd := branchDoc{
			Tag:    b.Tag,
			Input:  b.Input,
			Stages: encodeStages(b.Stages),
			Filter: encodeFilter(b.Filter),
			KeyIn:  encStrings(b.KeyIn),
			ValIn:  encStrings(b.ValIn),
			KeyOut: encStrings(b.KeyOut),
			ValOut: encStrings(b.ValOut),
		}
		jd.MapBranches = append(jd.MapBranches, bd)
	}
	for _, g := range j.ReduceGroups {
		gd := groupDoc{
			Tag:         g.Tag,
			Stages:      encodeStages(g.Stages),
			RunsMapSide: g.RunsMapSide,
			Output:      g.Output,
			Part:        encodeSpec(g.Part),
			KeyIn:       encStrings(g.KeyIn),
			ValIn:       encStrings(g.ValIn),
			KeyOut:      encStrings(g.KeyOut),
			ValOut:      encStrings(g.ValOut),
		}
		if g.Combiner != nil {
			sd := encodeStage(*g.Combiner)
			gd.Combiner = &sd
		}
		for _, c := range g.Constraints {
			gd.Constraints = append(gd.Constraints, encodeConstraint(c))
		}
		jd.ReduceGroups = append(jd.ReduceGroups, gd)
	}
	return jd, nil
}

func encodeStages(in []wf.Stage) []stageDoc {
	out := make([]stageDoc, len(in))
	for i, s := range in {
		out[i] = encodeStage(s)
	}
	return out
}

func encodeStage(s wf.Stage) stageDoc {
	return stageDoc{
		Name:         s.Name,
		Kind:         s.Kind.String(),
		GroupFields:  encInts(s.GroupFields),
		CPUPerRecord: s.CPUPerRecord,
	}
}

func encodeFilter(f *wf.Filter) *filterDoc {
	if f == nil {
		return nil
	}
	return &filterDoc{
		Field: f.Field,
		Lo:    encField(f.Interval.Lo),
		Hi:    encField(f.Interval.Hi),
	}
}

func encodeSpec(s keyval.PartitionSpec) partitionSpecDoc {
	return partitionSpecDoc{
		Type:        s.Type.String(),
		KeyFields:   encInts(s.KeyFields),
		SortFields:  encInts(s.SortFields),
		SplitPoints: encodeTuples(s.SplitPoints),
	}
}

func encodeConstraint(c wf.PartitionConstraint) constraintDoc {
	cd := constraintDoc{
		CoGroup:    encStrings(c.CoGroup),
		SortPrefix: encStrings(c.SortPrefix),
		Reason:     c.Reason,
	}
	if c.RequireType != nil {
		t := c.RequireType.String()
		cd.RequireType = &t
	}
	return cd
}

func encodeProfile(p *wf.JobProfile) *jobProfileDoc {
	if p == nil {
		return nil
	}
	doc := &jobProfileDoc{}
	if len(p.MapSide) > 0 {
		doc.MapSide = make(map[string]*pipelineProfileDoc, len(p.MapSide))
		for tag, pp := range p.MapSide {
			doc.MapSide[strconv.Itoa(tag)] = encodePipeline(pp)
		}
	}
	if len(p.MapSideByInput) > 0 {
		doc.MapSideByInput = make(map[string]*pipelineProfileDoc, len(p.MapSideByInput))
		for k, pp := range p.MapSideByInput {
			doc.MapSideByInput[k] = encodePipeline(pp)
		}
	}
	if len(p.ReduceSide) > 0 {
		doc.ReduceSide = make(map[string]*pipelineProfileDoc, len(p.ReduceSide))
		for tag, pp := range p.ReduceSide {
			doc.ReduceSide[strconv.Itoa(tag)] = encodePipeline(pp)
		}
	}
	return doc
}

func encodePipeline(p *wf.PipelineProfile) *pipelineProfileDoc {
	if p == nil {
		return nil
	}
	return &pipelineProfileDoc{
		Selectivity:        p.Selectivity,
		CPUPerRecord:       p.CPUPerRecord,
		OutBytesPerRecord:  p.OutBytesPerRecord,
		InBytesPerRecord:   p.InBytesPerRecord,
		GroupsPerRecord:    p.GroupsPerRecord,
		GroupsPerMapRecord: p.GroupsPerMapRecord,
		CombineReduction:   p.CombineReduction,
		KeySample:          encodeTuples(p.KeySample),
	}
}

func encodeDataset(d *wf.Dataset) datasetDoc {
	return datasetDoc{
		ID:   d.ID,
		Base: d.Base,
		Layout: layoutDoc{
			PartType:    d.Layout.PartType.String(),
			PartFields:  encStrings(d.Layout.PartFields),
			SortFields:  encStrings(d.Layout.SortFields),
			SplitPoints: encodeTuples(d.Layout.SplitPoints),
			Compressed:  d.Layout.Compressed,
		},
		KeyFields:     encStrings(d.KeyFields),
		ValueFields:   encStrings(d.ValueFields),
		EstRecords:    d.EstRecords,
		EstBytes:      d.EstBytes,
		EstPartitions: d.EstPartitions,
	}
}

func encodeTuples(in []keyval.Tuple) []tupleDoc {
	if in == nil {
		return nil
	}
	out := make([]tupleDoc, len(in))
	for i, t := range in {
		out[i] = encodeTuple(t)
	}
	return out
}

func encodeTuple(t keyval.Tuple) tupleDoc {
	out := make(tupleDoc, len(t))
	for i, f := range t {
		if fd := encField(f); fd != nil {
			out[i] = *fd
		}
	}
	return out
}

func encField(f keyval.Field) *fieldDoc {
	switch v := f.(type) {
	case nil:
		return nil
	case int64:
		s := strconv.FormatInt(v, 10)
		return &fieldDoc{Int: &s}
	case float64:
		return &fieldDoc{Float: &v}
	case string:
		return &fieldDoc{Str: &v}
	case bool:
		return &fieldDoc{Bool: &v}
	default:
		// keyval.T normalizes all supported inputs to the four types above;
		// anything else indicates a corrupted tuple.
		panic(fmt.Sprintf("planio: unsupported field type %T", f))
	}
}

func encInts(v []int) *[]int {
	if v == nil {
		return nil
	}
	c := append([]int{}, v...)
	return &c
}

func encStrings(v []string) *[]string {
	if v == nil {
		return nil
	}
	c := append([]string{}, v...)
	return &c
}

// --- decoding ----------------------------------------------------------------

type decoder struct {
	reg           *Registry
	structureOnly bool
	missing       map[string]bool
}

func (d *decoder) workflow(doc *document) (*wf.Workflow, error) {
	w := &wf.Workflow{Name: doc.Name}
	for i := range doc.Jobs {
		j, err := d.job(&doc.Jobs[i])
		if err != nil {
			return nil, err
		}
		w.Jobs = append(w.Jobs, j)
	}
	for i := range doc.Datasets {
		ds, err := decodeDataset(&doc.Datasets[i])
		if err != nil {
			return nil, err
		}
		w.Datasets = append(w.Datasets, ds)
	}
	return w, nil
}

func (d *decoder) job(jd *jobDoc) (*wf.Job, error) {
	j := &wf.Job{
		ID:               jd.ID,
		Config:           jd.Config,
		AlignMapToInput:  jd.AlignMapToInput,
		ReduceCountGroup: jd.ReduceCountGroup,
		PinnedReducers:   jd.PinnedReducers,
		Origin:           append([]string(nil), jd.Origin...),
	}
	var err error
	if j.Profile, err = decodeProfile(jd.Profile); err != nil {
		return nil, fmt.Errorf("planio: job %s: %w", jd.ID, err)
	}
	for _, bd := range jd.MapBranches {
		b := wf.MapBranch{
			Tag:    bd.Tag,
			Input:  bd.Input,
			KeyIn:  decStrings(bd.KeyIn),
			ValIn:  decStrings(bd.ValIn),
			KeyOut: decStrings(bd.KeyOut),
			ValOut: decStrings(bd.ValOut),
		}
		if b.Stages, err = d.stages(bd.Stages); err != nil {
			return nil, fmt.Errorf("planio: job %s branch %d: %w", jd.ID, bd.Tag, err)
		}
		if b.Filter, err = decodeFilter(bd.Filter); err != nil {
			return nil, fmt.Errorf("planio: job %s branch %d: %w", jd.ID, bd.Tag, err)
		}
		j.MapBranches = append(j.MapBranches, b)
	}
	for _, gd := range jd.ReduceGroups {
		g := wf.ReduceGroup{
			Tag:         gd.Tag,
			RunsMapSide: gd.RunsMapSide,
			Output:      gd.Output,
			KeyIn:       decStrings(gd.KeyIn),
			ValIn:       decStrings(gd.ValIn),
			KeyOut:      decStrings(gd.KeyOut),
			ValOut:      decStrings(gd.ValOut),
		}
		if g.Stages, err = d.stages(gd.Stages); err != nil {
			return nil, fmt.Errorf("planio: job %s group %d: %w", jd.ID, gd.Tag, err)
		}
		if gd.Combiner != nil {
			c, err := d.stage(*gd.Combiner)
			if err != nil {
				return nil, fmt.Errorf("planio: job %s group %d combiner: %w", jd.ID, gd.Tag, err)
			}
			g.Combiner = &c
		}
		if g.Part, err = decodeSpec(gd.Part); err != nil {
			return nil, fmt.Errorf("planio: job %s group %d: %w", jd.ID, gd.Tag, err)
		}
		for _, cd := range gd.Constraints {
			c, err := decodeConstraint(cd)
			if err != nil {
				return nil, fmt.Errorf("planio: job %s group %d: %w", jd.ID, gd.Tag, err)
			}
			g.Constraints = append(g.Constraints, c)
		}
		j.ReduceGroups = append(j.ReduceGroups, g)
	}
	return j, nil
}

func (d *decoder) stages(in []stageDoc) ([]wf.Stage, error) {
	out := make([]wf.Stage, len(in))
	for i, sd := range in {
		s, err := d.stage(sd)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (d *decoder) stage(sd stageDoc) (wf.Stage, error) {
	s := wf.Stage{
		Name:         sd.Name,
		GroupFields:  decInts(sd.GroupFields),
		CPUPerRecord: sd.CPUPerRecord,
	}
	switch sd.Kind {
	case "map":
		s.Kind = wf.MapKind
	case "reduce":
		s.Kind = wf.ReduceKind
	default:
		return wf.Stage{}, fmt.Errorf("stage %q has unknown kind %q", sd.Name, sd.Kind)
	}
	if d.structureOnly {
		if s.Kind == wf.MapKind {
			s.Map = placeholderMap(sd.Name)
		} else {
			s.Reduce = placeholderReduce(sd.Name)
		}
		return s, nil
	}
	mf, rf, err := d.reg.lookup(sd.Name, s.Kind)
	if err != nil {
		d.missing[sd.Kind+":"+sd.Name] = true
		return s, nil // collected; reported once after the walk
	}
	s.Map, s.Reduce = mf, rf
	return s, nil
}

func decodeFilter(fd *filterDoc) (*wf.Filter, error) {
	if fd == nil {
		return nil, nil
	}
	lo, err := decField(fd.Lo)
	if err != nil {
		return nil, fmt.Errorf("filter lo: %w", err)
	}
	hi, err := decField(fd.Hi)
	if err != nil {
		return nil, fmt.Errorf("filter hi: %w", err)
	}
	return &wf.Filter{Field: fd.Field, Interval: keyval.Interval{Lo: lo, Hi: hi}}, nil
}

func decodeSpec(sd partitionSpecDoc) (keyval.PartitionSpec, error) {
	s := keyval.PartitionSpec{
		KeyFields:  decInts(sd.KeyFields),
		SortFields: decInts(sd.SortFields),
	}
	switch sd.Type {
	case "hash":
		s.Type = keyval.HashPartition
	case "range":
		s.Type = keyval.RangePartition
	default:
		return s, fmt.Errorf("unknown partition type %q", sd.Type)
	}
	var err error
	if s.SplitPoints, err = decodeTuples(sd.SplitPoints); err != nil {
		return s, err
	}
	return s, nil
}

func decodeConstraint(cd constraintDoc) (wf.PartitionConstraint, error) {
	c := wf.PartitionConstraint{
		CoGroup:    decStrings(cd.CoGroup),
		SortPrefix: decStrings(cd.SortPrefix),
		Reason:     cd.Reason,
	}
	if cd.RequireType != nil {
		var t keyval.PartitionType
		switch *cd.RequireType {
		case "hash":
			t = keyval.HashPartition
		case "range":
			t = keyval.RangePartition
		default:
			return c, fmt.Errorf("unknown partition type %q in constraint", *cd.RequireType)
		}
		c.RequireType = &t
	}
	return c, nil
}

func decodeProfile(pd *jobProfileDoc) (*wf.JobProfile, error) {
	if pd == nil {
		return nil, nil
	}
	p := &wf.JobProfile{}
	if len(pd.MapSide) > 0 {
		p.MapSide = make(map[int]*wf.PipelineProfile, len(pd.MapSide))
		for k, v := range pd.MapSide {
			tag, err := strconv.Atoi(k)
			if err != nil {
				return nil, fmt.Errorf("profile mapSide tag %q: %w", k, err)
			}
			pp, err := decodePipeline(v)
			if err != nil {
				return nil, err
			}
			p.MapSide[tag] = pp
		}
	}
	if len(pd.MapSideByInput) > 0 {
		p.MapSideByInput = make(map[string]*wf.PipelineProfile, len(pd.MapSideByInput))
		for k, v := range pd.MapSideByInput {
			pp, err := decodePipeline(v)
			if err != nil {
				return nil, err
			}
			p.MapSideByInput[k] = pp
		}
	}
	if len(pd.ReduceSide) > 0 {
		p.ReduceSide = make(map[int]*wf.PipelineProfile, len(pd.ReduceSide))
		for k, v := range pd.ReduceSide {
			tag, err := strconv.Atoi(k)
			if err != nil {
				return nil, fmt.Errorf("profile reduceSide tag %q: %w", k, err)
			}
			pp, err := decodePipeline(v)
			if err != nil {
				return nil, err
			}
			p.ReduceSide[tag] = pp
		}
	}
	return p, nil
}

func decodePipeline(pd *pipelineProfileDoc) (*wf.PipelineProfile, error) {
	if pd == nil {
		return nil, nil
	}
	ks, err := decodeTuples(pd.KeySample)
	if err != nil {
		return nil, fmt.Errorf("key sample: %w", err)
	}
	return &wf.PipelineProfile{
		Selectivity:        pd.Selectivity,
		CPUPerRecord:       pd.CPUPerRecord,
		OutBytesPerRecord:  pd.OutBytesPerRecord,
		InBytesPerRecord:   pd.InBytesPerRecord,
		GroupsPerRecord:    pd.GroupsPerRecord,
		GroupsPerMapRecord: pd.GroupsPerMapRecord,
		CombineReduction:   pd.CombineReduction,
		KeySample:          ks,
	}, nil
}

func decodeDataset(dd *datasetDoc) (*wf.Dataset, error) {
	d := &wf.Dataset{
		ID:            dd.ID,
		Base:          dd.Base,
		KeyFields:     decStrings(dd.KeyFields),
		ValueFields:   decStrings(dd.ValueFields),
		EstRecords:    dd.EstRecords,
		EstBytes:      dd.EstBytes,
		EstPartitions: dd.EstPartitions,
	}
	d.Layout = wf.Layout{
		PartFields: decStrings(dd.Layout.PartFields),
		SortFields: decStrings(dd.Layout.SortFields),
		Compressed: dd.Layout.Compressed,
	}
	switch dd.Layout.PartType {
	case "hash":
		d.Layout.PartType = keyval.HashPartition
	case "range":
		d.Layout.PartType = keyval.RangePartition
	default:
		return nil, fmt.Errorf("planio: dataset %s: unknown partition type %q", dd.ID, dd.Layout.PartType)
	}
	var err error
	if d.Layout.SplitPoints, err = decodeTuples(dd.Layout.SplitPoints); err != nil {
		return nil, fmt.Errorf("planio: dataset %s: %w", dd.ID, err)
	}
	return d, nil
}

func decodeTuples(in []tupleDoc) ([]keyval.Tuple, error) {
	if in == nil {
		return nil, nil
	}
	out := make([]keyval.Tuple, len(in))
	for i, td := range in {
		t, err := decodeTuple(td)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func decodeTuple(td tupleDoc) (keyval.Tuple, error) {
	t := make(keyval.Tuple, len(td))
	for i := range td {
		f, err := decField(&td[i])
		if err != nil {
			return nil, err
		}
		t[i] = f
	}
	return t, nil
}

func decField(fd *fieldDoc) (keyval.Field, error) {
	if fd == nil {
		return nil, nil
	}
	set := 0
	if fd.Int != nil {
		set++
	}
	if fd.Float != nil {
		set++
	}
	if fd.Str != nil {
		set++
	}
	if fd.Bool != nil {
		set++
	}
	if set > 1 {
		return nil, fmt.Errorf("field sets %d variants, want at most one", set)
	}
	switch {
	case fd.Int != nil:
		v, err := strconv.ParseInt(*fd.Int, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("int field %q: %w", *fd.Int, err)
		}
		return v, nil
	case fd.Float != nil:
		return *fd.Float, nil
	case fd.Str != nil:
		return *fd.Str, nil
	case fd.Bool != nil:
		return *fd.Bool, nil
	default:
		return nil, nil // all-empty object is the nil field
	}
}

func decInts(p *[]int) []int {
	if p == nil {
		return nil
	}
	if *p == nil {
		return []int{}
	}
	return append([]int{}, (*p)...)
}

func decStrings(p *[]string) []string {
	if p == nil {
		return nil
	}
	if *p == nil {
		return []string{}
	}
	return append([]string{}, (*p)...)
}
