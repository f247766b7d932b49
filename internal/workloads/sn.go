package workloads

import (
	"math/rand"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/ops"
	"github.com/stubby-mr/stubby/internal/wf"
)

// buildSN constructs the Social Network Analysis workflow: find the top 20
// coauthor pairs over power-law (paperID, authorID) pairs partitioned on
// {paperID} (Section 7.1). Four jobs: J1 combines all authors per paper;
// J2 creates the coauthor pairs (map-only); J3 counts each pair; J4 finds
// the top 20 pairs in decreasing order.
//
// Substitution note: the paper's J3 samples split points for
// J4's range partitioning; here split-point selection is subsumed by
// Stubby's partition function transformation driven by profile key samples,
// and pair creation (map-only J2) carries the workload's inter-job vertical
// packing opportunity — J2 packs into J1's reduce, eliminating the large
// intermediate pairs dataset.
func buildSN(opt Options) (*wf.Workflow, *mrsim.DFS, error) {
	numPapers := opt.n(9000)
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5172))
	zipf := rand.NewZipf(rng, 1.6, 2, 7) // authors per paper, power-law, <= 8
	var pairs []keyval.Pair
	for p := 0; p < numPapers; p++ {
		k := int(zipf.Uint64()) + 1
		seen := map[int64]bool{}
		for i := 0; i < k; i++ {
			a := int64(rng.Intn(3000))
			if !seen[a] {
				seen[a] = true
				pairs = append(pairs, keyval.Pair{Key: keyval.T(int64(p)), Value: keyval.T(a)})
			}
		}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("pubs", pairs, mrsim.IngestSpec{
		NumPartitions: 24,
		KeyFields:     []string{"paper"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"paper"}, SortFields: []string{"paper"}},
	}); err != nil {
		return nil, nil, err
	}

	// J1: authors per paper (variable-length value tuple).
	j1Reduce := wf.ReduceStage("R1", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		authors := make(keyval.Tuple, 0, len(vs))
		for _, v := range vs {
			authors = append(authors, v[0])
		}
		emit(k, authors)
	}, nil, 0.5e-6)
	j1 := &wf.Job{
		ID: "J1", Config: wf.DefaultConfig(), Origin: []string{"J1"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "pubs",
			Stages: []wf.Stage{ops.Identity("M1", 0.4e-6)},
			KeyIn:  []string{"paper"}, ValIn: []string{"author"},
			KeyOut: []string{"paper"}, ValOut: []string{"author"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "authorsets",
			Stages: []wf.Stage{j1Reduce},
			KeyIn:  []string{"paper"}, ValIn: []string{"author"},
			KeyOut: []string{"paper"}, ValOut: []string{"authors"},
		}},
	}

	// J2: map-only coauthor pair creation.
	j2Map := wf.MapStage("M2", func(k, v keyval.Tuple, emit wf.Emit) {
		for i := 0; i < len(v); i++ {
			for j := i + 1; j < len(v); j++ {
				a, b := v[i].(int64), v[j].(int64)
				if a > b {
					a, b = b, a
				}
				emit(keyval.T(a, b), keyval.T(int64(1)))
			}
		}
	}, 1.2e-6)
	j2 := &wf.Job{
		ID: "J2", Config: wf.DefaultConfig(), Origin: []string{"J2"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "authorsets",
			Stages: []wf.Stage{j2Map},
			KeyIn:  []string{"paper"}, ValIn: []string{"authors"},
			KeyOut: []string{"a1", "a2"}, ValOut: []string{"n"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "pairs",
			KeyOut: []string{"a1", "a2"}, ValOut: []string{"n"},
		}},
	}

	// J3: count collaborations per pair.
	j3 := &wf.Job{
		ID: "J3", Config: wf.DefaultConfig(), Origin: []string{"J3"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "pairs",
			Stages: []wf.Stage{ops.Identity("M3", 0.4e-6)},
			KeyIn:  []string{"a1", "a2"}, ValIn: []string{"n"},
			KeyOut: []string{"a1", "a2"}, ValOut: []string{"n"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "counts",
			Stages:   []wf.Stage{ops.Sum("R3", 0.5e-6, 0)},
			Combiner: stagePtr(ops.SumCombiner("C3", 0.5e-6, 0)),
			KeyIn:    []string{"a1", "a2"}, ValIn: []string{"n"},
			KeyOut: []string{"a1", "a2"}, ValOut: []string{"cnt"},
		}},
	}

	// J4: global top-20 by count (map-side local top-20, one merge group).
	j4 := &wf.Job{
		ID: "J4", Config: wf.DefaultConfig(), Origin: []string{"J4"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "counts",
			Stages: []wf.Stage{
				ops.Rekey("M4", 0.4e-6, []ops.Src{}, []ops.Src{ops.V(0), ops.K(0), ops.K(1)}),
				ops.LocalTopK("T4", 0.4e-6, 20, 0),
			},
			KeyIn: []string{"a1", "a2"}, ValIn: []string{"cnt"},
			KeyOut: []string{"g"}, ValOut: []string{"cnt", "a1", "a2"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "top20",
			Stages: []wf.Stage{ops.MergeTopK("R4", 0.4e-6, 20, 0)},
			KeyIn:  []string{"g"}, ValIn: []string{"cnt", "a1", "a2"},
			KeyOut: []string{"rank"}, ValOut: []string{"cnt", "a1", "a2"},
		}},
	}

	w := &wf.Workflow{
		Name: "SN",
		Jobs: []*wf.Job{j1, j2, j3, j4},
		Datasets: []*wf.Dataset{
			{ID: "pubs", Base: true, KeyFields: []string{"paper"}, ValueFields: []string{"author"}},
			{ID: "authorsets", KeyFields: []string{"paper"}, ValueFields: []string{"authors"}},
			{ID: "pairs", KeyFields: []string{"a1", "a2"}, ValueFields: []string{"n"}},
			{ID: "counts", KeyFields: []string{"a1", "a2"}, ValueFields: []string{"cnt"}},
			{ID: "top20", KeyFields: []string{"rank"}, ValueFields: []string{"cnt", "a1", "a2"}},
		},
	}
	return w, dfs, nil
}
