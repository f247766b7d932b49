package optimizer

import (
	"reflect"
	"testing"
)

// TestTransformationTable pins the table: row names, their order (which
// decides MaxSubplans truncation, cost tie-breaks and every Desc string of the
// event stream) and groups; then, for the row selection of each cost-based
// registry planner, which rows take part in which traversal phase.
func TestTransformationTable(t *testing.T) {
	cl := testCluster()
	type entry struct {
		name   string
		groups Groups
	}
	var got []entry
	for _, r := range New(cl, Options{Custom: []Transformation{copyElision{}}}).table {
		got = append(got, entry{r.Name(), r.groups})
	}
	want := []entry{
		{"intra-vertical", GroupVertical},
		{"inter-vertical", GroupVertical},
		{"inter-vertical-replicate", GroupVertical},
		{"inter-vertical-keep", GroupVertical},
		{"horizontal", GroupHorizontal},
		{"partition", GroupAll},
		{"custom:copy-elision", GroupAll},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table rows:\n got %v\nwant %v", got, want)
	}

	vertical := []string{"intra-vertical", "inter-vertical", "inter-vertical-replicate", "inter-vertical-keep"}
	withPartition := func(rows ...string) []string { return append(append([]string{}, rows...), "partition") }
	for _, c := range []struct {
		planner string
		opt     Options
		phases  map[string][]string // phase -> rows taking part, in order
	}{
		{"stubby", Options{}, map[string][]string{
			"vertical": withPartition(vertical...), "horizontal": withPartition("horizontal")}},
		{"vertical", Options{Groups: GroupVertical}, map[string][]string{
			"vertical": withPartition(vertical...)}},
		{"horizontal", Options{Groups: GroupHorizontal}, map[string][]string{
			"horizontal": withPartition("horizontal")}},
		{"starfish", Options{Groups: GroupConfigOnly}, map[string][]string{
			"config": nil}},
		{"mrshare", Options{Groups: GroupHorizontal, DisablePartition: true, DisableConfigSearch: true},
			map[string][]string{"horizontal": {"horizontal"}}},
	} {
		s := New(cl, c.opt)
		res, err := s.Optimize(buildChain(true))
		if err != nil {
			t.Fatalf("%s: %v", c.planner, err)
		}
		ran := map[string][]string{}
		for _, u := range res.Units {
			ph := phaseSpec{name: u.Phase, groups: map[string]Groups{
				"vertical": GroupVertical, "horizontal": GroupHorizontal, "config": GroupConfigOnly}[u.Phase]}
			var rows []string
			for _, r := range s.table {
				if r.groups&ph.groups != 0 {
					rows = append(rows, r.Name())
				}
			}
			ran[u.Phase] = rows
			// A row outside the phase proposes nothing in it.
			for i, y := range u.Yield {
				if s.table[i].groups&ph.groups == 0 && y.Proposed != 0 {
					t.Errorf("%s: %s proposed %d plans in the %s phase", c.planner, y.Transformation, y.Proposed, u.Phase)
				}
			}
		}
		if !reflect.DeepEqual(ran, c.phases) {
			t.Errorf("%s: phases and their rows:\n got %v\nwant %v", c.planner, ran, c.phases)
		}
	}
}
