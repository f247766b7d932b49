package bench

import (
	"fmt"
	"math/rand"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// Deep pipelines: the multi-job regime the paper's Table 1 workloads only
// hint at. Production workflow generators (Pig, Hive, Oozie compositions —
// the systems Stubby sits behind in Figure 2) routinely emit chains of ten
// or more jobs, and that is the regime incremental What-if estimation is
// built for: optimization units cover a small window of the chain, so most
// of each configuration probe's estimate is prefix or unaffected tail. The
// bench harness materializes synthetic N-stage aggregation chains to
// measure that regime alongside the paper workloads.

// deepPipelines lists the synthetic deep-pipeline workloads the incremental
// and robustness figures measure in addition to the paper's Table 1 set.
var deepPipelines = []string{"DP08", "DP12", "DP16"}

// deepPipelineStages maps a DPnn abbreviation to its stage count.
func deepPipelineStages(abbr string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(abbr, "DP%d", &n); err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// buildDeepPipeline constructs an N-stage aggregation chain: a base event
// set followed by N group-and-sum jobs, each re-keying onto a different
// dimension (stage-dependent modulus), every stage combinable. The chain is
// profiled like the paper workloads and carries a cluster whose virtual
// scale puts it in the multi-hundred-GB cost regime.
func buildDeepPipeline(stages int, sizeFactor float64, seed int64) (*workloads.Workload, error) {
	if sizeFactor <= 0 {
		sizeFactor = 1
	}
	numRecords := int(60000 * sizeFactor)
	if numRecords < 100 {
		numRecords = 100
	}
	rng := rand.New(rand.NewSource(seed ^ 0xdeeb))
	pairs := make([]keyval.Pair, numRecords)
	for i := range pairs {
		pairs[i] = keyval.Pair{
			Key:   keyval.T(int64(rng.Intn(50000))),
			Value: keyval.T(int64(1), rng.Float64()*100),
		}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("dp_events", pairs, mrsim.IngestSpec{
		NumPartitions: 24,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	}); err != nil {
		return nil, err
	}

	sum := func(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
		var n int64
		var total float64
		for _, v := range values {
			n += v[0].(int64)
			total += v[1].(float64)
		}
		emit(key, keyval.T(n, total))
	}
	w := &wf.Workflow{
		Name: fmt.Sprintf("deep-pipeline-%d", stages),
		Datasets: []*wf.Dataset{
			{ID: "dp_events", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"n", "total"}},
		},
	}
	in := "dp_events"
	for s := 0; s < stages; s++ {
		// Each stage re-keys onto its own dimension so consecutive stages
		// group differently (mirroring rollup chains: by user, by page, by
		// region, ...); cardinalities cycle so intermediate volumes stay
		// non-trivial along the whole chain.
		card := int64([]int{4096, 2048, 6144, 3072, 5120, 1536, 7168, 2560}[s%8])
		mult := int64(2*s + 3)
		id := fmt.Sprintf("S%02d", s+1)
		out := fmt.Sprintf("dp_%02d", s+1)
		rekey := func(card, mult int64) wf.MapFn {
			return func(key, value keyval.Tuple, emit wf.Emit) {
				emit(keyval.T((key[0].(int64)*mult)%card), value)
			}
		}(card, mult)
		combine := wf.ReduceStage("C_"+id, sum, nil, 4e-7)
		w.Jobs = append(w.Jobs, &wf.Job{
			ID: id, Config: wf.DefaultConfig(), Origin: []string{id},
			MapBranches: []wf.MapBranch{{
				Tag: 0, Input: in,
				Stages: []wf.Stage{wf.MapStage("M_"+id, rekey, 8e-7)},
				KeyIn:  []string{"k"}, KeyOut: []string{"k"},
			}},
			ReduceGroups: []wf.ReduceGroup{{
				Tag: 0, Output: out, Combiner: &combine,
				Stages: []wf.Stage{wf.ReduceStage("R_"+id, sum, nil, 6e-7)},
				KeyIn:  []string{"k"}, KeyOut: []string{"k"},
			}},
		})
		w.Datasets = append(w.Datasets, &wf.Dataset{ID: out, KeyFields: []string{"k"}})
		in = out
	}

	cluster := mrsim.DefaultCluster()
	cluster.VirtualScale = 4000 / sizeFactor
	return &workloads.Workload{
		Abbr:     fmt.Sprintf("DP%02d", stages),
		Title:    fmt.Sprintf("Deep Pipeline (%d stages)", stages),
		Workflow: w,
		DFS:      dfs,
		Cluster:  cluster,
	}, nil
}
