package workloads

import (
	"math/rand"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/ops"
	"github.com/stubby-mr/stubby/internal/wf"
)

// buildLA constructs the Log Analysis workflow (Pavlo et al.'s complex join
// task, Section 7.1): filter uservisits by a date range and join with
// pageranks on the page URL (J1); aggregate average pagerank and total ad
// revenue per user (J2); re-key by revenue (J3, map-only — standing in for
// the paper's split-point sampling job, whose role Stubby's profile-driven
// partition transformation subsumes); find the user with the
// highest total ad revenue (J4).
//
// uservisits is range partitioned on {date} (the Table 1 annotation), so
// J1's filter annotation enables partition pruning at the base input.
func buildLA(opt Options) (*wf.Workflow, *mrsim.DFS, error) {
	numVisits := opt.n(60000)
	numURLs := opt.n(8000)
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x1a1a))
	var visits []keyval.Pair
	for i := 0; i < numVisits; i++ {
		date := int64(rng.Intn(365))
		url := int64(rng.Intn(numURLs))
		user := int64(rng.Intn(4000))
		revenue := rng.Float64() * 10
		visits = append(visits, keyval.Pair{Key: keyval.T(date, url), Value: keyval.T(user, revenue)})
	}
	var ranks []keyval.Pair
	for u := 0; u < numURLs; u++ {
		ranks = append(ranks, keyval.Pair{Key: keyval.T(int64(u)), Value: keyval.T(rng.Float64())})
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("uservisits", visits, mrsim.IngestSpec{
		NumPartitions: 24,
		KeyFields:     []string{"date", "url"},
		Layout:        wf.Layout{PartType: keyval.RangePartition, PartFields: []string{"date"}, SortFields: []string{"date"}},
	}); err != nil {
		return nil, nil, err
	}
	if err := dfs.Ingest("pageranks", ranks, mrsim.IngestSpec{
		NumPartitions: 8,
		KeyFields:     []string{"url"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"url"}},
	}); err != nil {
		return nil, nil, err
	}

	dateFilter := keyval.Interval{Lo: int64(90), Hi: int64(180)} // one quarter

	// J1: filtered repartition join on url.
	j1Join := wf.ReduceStage("R1", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var rank float64
		found := false
		for _, v := range vs {
			if v[0].(string) == "R" {
				rank = asF(v[1])
				found = true
				break
			}
		}
		if !found {
			return
		}
		for _, v := range vs {
			if v[0].(string) == "V" {
				emit(keyval.T(v[1]), keyval.T(rank, v[2]))
			}
		}
	}, nil, 1.0e-6)
	j1 := &wf.Job{
		ID: "J1", Config: wf.DefaultConfig(), Origin: []string{"J1"},
		MapBranches: []wf.MapBranch{
			{
				Tag: 0, Input: "uservisits",
				Stages: []wf.Stage{wf.MapStage("M1v", func(k, v keyval.Tuple, emit wf.Emit) {
					if !dateFilter.Contains(k[0]) {
						return
					}
					emit(keyval.T(k[1]), keyval.T("V", v[0], v[1]))
				}, 0.6e-6)},
				Filter: &wf.Filter{Field: "date", Interval: dateFilter},
				KeyIn:  []string{"date", "url"}, ValIn: []string{"user", "revenue"},
				KeyOut: []string{"url"}, ValOut: []string{"tag", "user", "revenue"},
			},
			{
				Tag: 0, Input: "pageranks",
				Stages: []wf.Stage{ops.TagValue("M1r", 0.4e-6, "R")},
				KeyIn:  []string{"url"}, ValIn: []string{"rank"},
				KeyOut: []string{"url"}, ValOut: []string{"tag", "rank"},
			},
		},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "joined",
			Stages: []wf.Stage{j1Join},
			KeyIn:  []string{"url"}, ValIn: []string{"tag", "payload"},
			KeyOut: []string{"user"}, ValOut: []string{"rank", "revenue"},
		}},
	}

	// J2: per-user average rank and total revenue.
	j2Reduce := wf.ReduceStage("R2", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var sumRank, sumRev float64
		for _, v := range vs {
			sumRank += asF(v[0])
			sumRev += asF(v[1])
		}
		emit(k, keyval.T(sumRank/float64(len(vs)), sumRev))
	}, nil, 0.7e-6)
	j2 := &wf.Job{
		ID: "J2", Config: wf.DefaultConfig(), Origin: []string{"J2"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "joined",
			Stages: []wf.Stage{ops.Identity("M2", 0.4e-6)},
			KeyIn:  []string{"user"}, ValIn: []string{"rank", "revenue"},
			KeyOut: []string{"user"}, ValOut: []string{"rank", "revenue"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "peruser",
			Stages: []wf.Stage{j2Reduce},
			KeyIn:  []string{"user"}, ValIn: []string{"rank", "revenue"},
			KeyOut: []string{"user"}, ValOut: []string{"avgrank", "totalrev"},
		}},
	}

	// J3: map-only re-key by total revenue (inter-packable into J2).
	j3 := &wf.Job{
		ID: "J3", Config: wf.DefaultConfig(), Origin: []string{"J3"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "peruser",
			Stages: []wf.Stage{ops.Rekey("M3", 0.4e-6, []ops.Src{ops.V(1)}, []ops.Src{ops.K(0), ops.V(0)})},
			KeyIn:  []string{"user"}, ValIn: []string{"avgrank", "totalrev"},
			KeyOut: []string{"totalrev"}, ValOut: []string{"user", "avgrank"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "byrev",
			KeyOut: []string{"totalrev"}, ValOut: []string{"user", "avgrank"},
		}},
	}

	// J4: the user with the highest total revenue.
	j4 := &wf.Job{
		ID: "J4", Config: wf.DefaultConfig(), Origin: []string{"J4"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "byrev",
			Stages: []wf.Stage{
				ops.Rekey("M4", 0.4e-6, []ops.Src{}, []ops.Src{ops.K(0), ops.V(0)}),
				ops.LocalTopK("T4", 0.4e-6, 1, 0),
			},
			KeyIn: []string{"totalrev"}, ValIn: []string{"user", "avgrank"},
			KeyOut: []string{"g"}, ValOut: []string{"totalrev", "user"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "topuser",
			Stages: []wf.Stage{ops.MergeTopK("R4", 0.4e-6, 1, 0)},
			KeyIn:  []string{"g"}, ValIn: []string{"totalrev", "user"},
			KeyOut: []string{"rank"}, ValOut: []string{"totalrev", "user"},
		}},
	}

	w := &wf.Workflow{
		Name: "LA",
		Jobs: []*wf.Job{j1, j2, j3, j4},
		Datasets: []*wf.Dataset{
			{ID: "uservisits", Base: true, KeyFields: []string{"date", "url"}, ValueFields: []string{"user", "revenue"}},
			{ID: "pageranks", Base: true, KeyFields: []string{"url"}, ValueFields: []string{"rank"}},
			{ID: "joined", KeyFields: []string{"user"}, ValueFields: []string{"rank", "revenue"}},
			{ID: "peruser", KeyFields: []string{"user"}, ValueFields: []string{"avgrank", "totalrev"}},
			{ID: "byrev", KeyFields: []string{"totalrev"}, ValueFields: []string{"user", "avgrank"}},
			{ID: "topuser", KeyFields: []string{"rank"}, ValueFields: []string{"totalrev", "user"}},
		},
	}
	return w, dfs, nil
}
