package wf

import (
	"reflect"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
)

// refGroupOutputLayout is DeriveGroupOutputLayout as it was written before
// it projected K2 names by index: names become a tuple, keyval.Project picks
// the spec's fields (out-of-range fields become nil) and any non-name field
// voids the whole list; split points are deep-copied.
func refGroupOutputLayout(g ReduceGroup, cfg Config) Layout {
	layout := Layout{Compressed: cfg.CompressOutput, PartType: g.Part.Type}
	if g.KeyIn == nil {
		return layout
	}
	pf := refTupleToNames(keyval.Project(refNamesToTuple(g.KeyIn), g.Part.EffectiveKeyFields(len(g.KeyIn))))
	if len(pf) > 0 && FieldsSubset(pf, g.KeyOut) {
		layout.PartFields = pf
		if g.Part.Type == keyval.RangePartition {
			layout.SplitPoints = make([]keyval.Tuple, len(g.Part.SplitPoints))
			for i, sp := range g.Part.SplitPoints {
				layout.SplitPoints[i] = keyval.Clone(sp)
			}
		}
	}
	for _, f := range refTupleToNames(keyval.Project(refNamesToTuple(g.KeyIn), g.Part.EffectiveSortFields(len(g.KeyIn)))) {
		if FieldIndex(g.KeyOut, f) < 0 {
			break
		}
		layout.SortFields = append(layout.SortFields, f)
	}
	return layout
}

func refNamesToTuple(names []string) keyval.Tuple {
	t := make(keyval.Tuple, len(names))
	for i, n := range names {
		t[i] = n
	}
	return t
}

func refTupleToNames(t keyval.Tuple) []string {
	out := make([]string, 0, len(t))
	for _, f := range t {
		s, ok := f.(string)
		if !ok {
			return nil
		}
		out = append(out, s)
	}
	return out
}

// sameLayout compares everything but split points exactly (nil and empty
// name lists differ: nil means unknown) and split points by content.
func sameLayout(t *testing.T, what string, got, want Layout) {
	t.Helper()
	gotSP, wantSP := got.SplitPoints, want.SplitPoints
	got.SplitPoints, want.SplitPoints = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: layout %#v, want %#v", what, got, want)
	}
	if !sameTuples(gotSP, wantSP) {
		t.Errorf("%s: split points %v, want %v", what, gotSP, wantSP)
	}
}

func sameTuples(a, b []keyval.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if keyval.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestDeriveGroupOutputLayout holds the index projection to the tuple
// round trip it replaced, across nil, empty, explicit and out-of-range
// field lists, partition fields that do and do not survive into K3, and
// hash vs range partitioning; range split points carry the spec's content.
func TestDeriveGroupOutputLayout(t *testing.T) {
	splits := []keyval.Tuple{keyval.T("g"), keyval.T("p")}
	abc := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name          string
		keyIn, keyOut []string
		key, sort     []int
		want          Layout // PartType and Compressed are filled in below
	}{
		{name: "unknown K2", keyIn: nil, keyOut: abc},
		{name: "empty K2", keyIn: []string{}, keyOut: abc},
		{name: "nil fields, all survive", keyIn: abc, keyOut: abc,
			want: Layout{PartFields: abc, SortFields: abc}},
		{name: "nil fields, unknown K3", keyIn: abc, keyOut: nil},
		{name: "nil fields, sort prefix breaks", keyIn: abc, keyOut: []string{"a", "c"},
			want: Layout{SortFields: []string{"a"}}},
		{name: "explicit fields survive", keyIn: abc, keyOut: []string{"c", "b"}, key: []int{2}, sort: []int{2, 1, 0},
			want: Layout{PartFields: []string{"c"}, SortFields: []string{"c", "b"}}},
		{name: "partition field does not survive", keyIn: abc, keyOut: []string{"a"}, key: []int{1}, sort: []int{0, 1},
			want: Layout{SortFields: []string{"a"}}},
		{name: "empty fields", keyIn: abc, keyOut: abc, key: []int{}, sort: []int{}},
		{name: "out-of-range partition field", keyIn: abc, keyOut: abc, key: []int{0, 3}, sort: []int{0},
			want: Layout{SortFields: []string{"a"}}},
		{name: "out-of-range sort field past the prefix", keyIn: abc, keyOut: []string{"a"}, key: []int{0}, sort: []int{0, 1, 5},
			want: Layout{PartFields: []string{"a"}}},
		{name: "first sort field not in K3", keyIn: abc, keyOut: []string{"b"}, key: []int{1}, sort: []int{0, 1},
			want: Layout{PartFields: []string{"b"}}},
	} {
		for _, typ := range []keyval.PartitionType{keyval.HashPartition, keyval.RangePartition} {
			g := ReduceGroup{KeyIn: tc.keyIn, KeyOut: tc.keyOut,
				Part: keyval.PartitionSpec{Type: typ, KeyFields: tc.key, SortFields: tc.sort}}
			if typ == keyval.RangePartition {
				g.Part.SplitPoints = splits
			}
			cfg := Config{CompressOutput: typ == keyval.RangePartition}
			what := tc.name + "/" + typ.String()
			got := DeriveGroupOutputLayout(g, cfg)
			sameLayout(t, what+" vs reference", got, refGroupOutputLayout(g, cfg))

			want := tc.want
			want.PartType, want.Compressed = typ, cfg.CompressOutput
			if typ == keyval.RangePartition && want.PartFields != nil {
				want.SplitPoints = splits
			}
			sameLayout(t, what, got, want)
		}
	}
}

// TestDeriveMapOnlyOutputLayout: a map-only group keeps the input layout's
// partitioning only when aligned and every partition name survives, range
// split points with it, and the longest surviving prefix of its sort order.
func TestDeriveMapOnlyOutputLayout(t *testing.T) {
	splits := []keyval.Tuple{keyval.T(int64(10)), keyval.T(int64(20))}
	rangeIn := Layout{PartType: keyval.RangePartition, PartFields: []string{"a"},
		SortFields: []string{"a", "b"}, SplitPoints: splits}
	hashIn := Layout{PartType: keyval.HashPartition, PartFields: []string{"a", "b"}, SortFields: []string{"b"}}
	for _, tc := range []struct {
		name    string
		in      Layout
		keyOut  []string
		aligned bool
		want    Layout
	}{
		{"unknown K3", rangeIn, nil, true, Layout{}},
		{"range, aligned", rangeIn, []string{"b", "a"}, true, rangeIn},
		{"range, not aligned", rangeIn, []string{"a", "b"}, false, Layout{SortFields: []string{"a", "b"}}},
		{"range, sort prefix breaks", rangeIn, []string{"a"}, true,
			Layout{PartType: keyval.RangePartition, PartFields: []string{"a"}, SortFields: []string{"a"}, SplitPoints: splits}},
		{"hash, partition name lost", hashIn, []string{"b"}, true, Layout{SortFields: []string{"b"}}},
		{"hash, aligned", hashIn, []string{"a", "b"}, true, hashIn},
		{"unpartitioned input", Layout{}, []string{"a"}, true, Layout{}},
	} {
		g := ReduceGroup{KeyOut: tc.keyOut}
		got := DeriveMapOnlyOutputLayout(tc.in, g, tc.aligned, Config{})
		sameLayout(t, tc.name, got, tc.want)
	}
}
