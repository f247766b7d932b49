package trans

import (
	"reflect"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// profiledWorkload builds one paper workload and profiles it at f = 0.5.
func profiledWorkload(tb testing.TB, abbr string, size float64) *workloads.Workload {
	tb.Helper()
	wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: size, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
		tb.Fatal(err)
	}
	return wl
}

// equiDepthRequests lists the (sample, fields, n) triples one enumeration of
// a group asks the memo for, derived from the plan independently of it.
func equiDepthRequests(w *wf.Workflow, j *wf.Job, g *wf.ReduceGroup, targetParts int) []splitKey {
	if g.MapOnly() || g.KeyIn == nil || j.Profile == nil || j.Profile.MapSide[g.Tag] == nil {
		return nil
	}
	sample := j.Profile.MapSide[g.Tag].KeySample
	if len(sample) == 0 {
		return nil
	}
	n := targetParts
	if n < 2 {
		n = j.Config.NumReduceTasks
	}
	n = max(min(n, len(sample)/15), 2)
	key := func(fields []int) splitKey {
		return splitKey{sample: &sample[0], size: len(sample), fields: keyval.HashInts(fields), n: n}
	}
	out := []splitKey{key(g.Part.EffectiveKeyFields(len(g.KeyIn)))}
	for _, field := range consumerFilterFields(w, g.Output) {
		if idx := wf.FieldIndex(g.KeyIn, field); idx >= 0 && wf.FieldIndex(g.KeyOut, field) >= 0 {
			out = append(out, key([]int{idx}))
		}
	}
	return out
}

// TestSplitMemoMatchesFresh: on every reduce group of the eight paper
// workloads, the memoized enumeration returns exactly the nil-memo one, on a
// cold memo and again on a warm one. reflect.DeepEqual tells int64 from
// float64 split points, which keyval.Compare does not. The warm memo holds
// one entry per distinct (sample, fields, n) the enumerations asked for.
func TestSplitMemoMatchesFresh(t *testing.T) {
	specs := 0
	for _, abbr := range workloads.Abbrs() {
		wl := profiledWorkload(t, abbr, 0.1)
		w := wl.Workflow
		memo := NewSplitMemo()
		asked := map[splitKey]bool{}
		for _, pass := range []string{"cold", "warm"} {
			for _, j := range w.Jobs {
				for i := range j.ReduceGroups {
					g := &j.ReduceGroups[i]
					for _, parts := range []int{0, 2, 7, wl.Cluster.TotalReduceSlots()} {
						got := memo.EnumeratePartitionSpecs(w, j.ID, g.Tag, parts)
						want := EnumeratePartitionSpecs(w, j.ID, g.Tag, parts)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s memo, %s#%d targetParts=%d:\n got %v\nwant %v",
								abbr, pass, j.ID, g.Tag, parts, got, want)
						}
						specs += len(got)
						for _, k := range equiDepthRequests(w, j, g, parts) {
							asked[k] = true
						}
					}
				}
			}
		}
		if len(memo.points) != len(asked) {
			t.Errorf("%s: warm memo holds %d entries, want one per distinct (sample, fields, n): %d",
				abbr, len(memo.points), len(asked))
		}
	}
	if specs == 0 {
		t.Error("no workload enumerated a partition spec; the memo was never exercised")
	}
}

var specSink []keyval.PartitionSpec

// BenchmarkEnumeratePartitionSpecs times one partition-row enumeration of
// BR's heaviest reduce group (the one whose specs carry the most split
// points) at lib-search settings: fresh derives every equi-depth list, memo
// answers from a warm SplitMemo, as the optimizer does for every subplan
// after the first.
func BenchmarkEnumeratePartitionSpecs(b *testing.B) {
	wl := profiledWorkload(b, "BR", 0.25)
	w, slots := wl.Workflow, wl.Cluster.TotalReduceSlots()
	var job string
	tag, most := 0, -1
	for _, j := range w.Jobs {
		for _, g := range j.ReduceGroups {
			points := 0
			for _, s := range EnumeratePartitionSpecs(w, j.ID, g.Tag, slots) {
				points += len(s.SplitPoints)
			}
			if points > most {
				job, tag, most = j.ID, g.Tag, points
			}
		}
	}
	for _, bc := range []struct {
		name string
		memo *SplitMemo
	}{{"fresh", nil}, {"memo", NewSplitMemo()}} {
		b.Run(bc.name, func(b *testing.B) {
			specSink = bc.memo.EnumeratePartitionSpecs(w, job, tag, slots)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specSink = bc.memo.EnumeratePartitionSpecs(w, job, tag, slots)
			}
		})
	}
}
