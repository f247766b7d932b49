package stubby_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/stubby-mr/stubby"
)

// domainSplitPoints is a custom structural transformation: it proposes range
// partitioning with fixed, operator-known split points for every reduce
// group keyed on Field whose output feeds a consumer filtered on Field. It
// invents no information: the transformation machinery checks each proposal
// against the group's partition constraints, and the optimizer adopts it
// only where the What-if estimate improves.
type domainSplitPoints struct {
	// Field is the key field the domain knowledge applies to.
	Field string
	// Points are the known block boundaries.
	Points []stubby.Tuple
}

func (d domainSplitPoints) Name() string { return "domain-split-points" }

func (d domainSplitPoints) Apply(plan *stubby.Workflow, unitJobs []string) []stubby.Proposal {
	var out []stubby.Proposal
	for _, id := range unitJobs {
		j := plan.Job(id)
		if j == nil {
			continue
		}
		for gi := range j.ReduceGroups {
			g := &j.ReduceGroups[gi]
			if len(g.KeyIn) == 0 || g.KeyIn[0] != d.Field || g.Part.SplitPoints != nil || !d.filtered(plan, g.Output) {
				continue
			}
			p := plan.Clone()
			pg := p.Job(id).Group(g.Tag)
			pg.Part.Type = stubby.RangePartitionType
			pg.Part.KeyFields = []int{0}
			pg.Part.SortFields = nil
			for _, pt := range d.Points {
				pg.Part.SplitPoints = append(pg.Part.SplitPoints, append(stubby.Tuple(nil), pt...))
			}
			out = append(out, stubby.Proposal{Plan: p, Desc: fmt.Sprintf("domain-split-points(%s#%d)", id, g.Tag)})
		}
	}
	return out
}

// filtered reports whether a consumer of dataset reads it through a filter
// on d.Field.
func (d domainSplitPoints) filtered(plan *stubby.Workflow, dataset string) bool {
	for _, jc := range plan.Consumers(dataset) {
		for _, b := range jc.MapBranches {
			if b.Input == dataset && b.Filter != nil && b.Filter.Field == d.Field {
				return true
			}
		}
	}
	return false
}

// ExampleTransformation extends the optimizer with a custom transformation
// (the paper's "new transformations can be added to extend the optimizer's
// functionality easily", Section 1). The workflow sorts events by order id
// and feeds two consumers that each analyze a disjoint order range. The
// sort must range-partition but has no split points, so it runs as a single
// reduce partition. The built-in partition row, which would derive split
// points from profile samples, is dropped (Options.DisablePartition, as the
// MRShare comparator does), and a custom row contributes split points from
// domain knowledge instead: orders arrive in blocks of 100. Its proposals
// compete on estimated cost like a built-in row's and are counted in
// Result.Yield under "custom:" plus its name. The one proposal is adopted:
// both plans keep 3 jobs, and the simulated run is 7.3x faster.
func ExampleTransformation() {
	rng := rand.New(rand.NewSource(3))
	var rows []stubby.Pair
	for i := 0; i < 8000; i++ {
		rows = append(rows, stubby.Pair{
			Key:   stubby.T(int64(rng.Intn(1000))), // order id in [0, 1000)
			Value: stubby.T(float64(rng.Intn(500))),
		})
	}
	dfs := stubby.NewDFS()
	if err := dfs.Ingest("events", rows, stubby.IngestSpec{
		NumPartitions: 24,
		KeyFields:     []string{"ord"},
		Layout:        stubby.Layout{PartFields: []string{"ord"}},
	}); err != nil {
		log.Fatal(err)
	}
	w, err := stubby.CompileQuery(`
		e = LOAD 'events';
		pre = ORDER e BY ord;
		SPLIT pre INTO young IF ord < 100, rest IF ord >= 100;
		gy = GROUP young BY ord;
		ay = FOREACH gy GENERATE group, COUNT(*) AS n, SUM(amount) AS total;
		gr = GROUP rest BY ord;
		ar = FOREACH gr GENERATE group, COUNT(*) AS n, MAX(amount) AS top;
		STORE ay INTO 'young_stats';
		STORE ar INTO 'rest_stats';
	`, []*stubby.Dataset{{ID: "events", Base: true, KeyFields: []string{"ord"}, ValueFields: []string{"amount"}}}, "splits")
	if err != nil {
		log.Fatal(err)
	}

	cluster := stubby.DefaultCluster()
	cluster.VirtualScale = 300000
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(cluster), stubby.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, w, dfs); err != nil {
		log.Fatal(err)
	}

	var points []stubby.Tuple
	for b := int64(100); b < 1000; b += 100 {
		points = append(points, stubby.T(b))
	}
	optimize := func(opt stubby.Options) (*stubby.Result, float64) {
		tuned, err := stubby.NewSession(stubby.WithCluster(cluster), stubby.WithOptimizerOptions(opt))
		if err != nil {
			log.Fatal(err)
		}
		res, err := tuned.Optimize(ctx, w)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sess.Run(ctx, dfs.Clone(), res.Plan)
		if err != nil {
			log.Fatal(err)
		}
		return res, rep.Makespan
	}
	plain, without := optimize(stubby.Options{Seed: 1, DisablePartition: true})
	res, with := optimize(stubby.Options{Seed: 1, DisablePartition: true,
		Custom: []stubby.Transformation{domainSplitPoints{Field: "ord", Points: points}}})

	yield := res.Yield() // custom rows follow the built-ins
	y := yield[len(yield)-1]
	fmt.Printf("%s: proposed %d, kept %d, chosen %d\n", y.Transformation, y.Proposed, y.Kept, y.Chosen)
	fmt.Printf("jobs: %d without the extension, %d with it\n", len(plain.Plan.Jobs), len(res.Plan.Jobs))
	fmt.Printf("simulated speedup from the extension: %.1fx\n", without/with)
	// Output:
	// custom:domain-split-points: proposed 1, kept 1, chosen 1
	// jobs: 3 without the extension, 3 with it
	// simulated speedup from the extension: 7.3x
}
