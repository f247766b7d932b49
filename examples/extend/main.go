// Extend: add a custom transformation to Stubby's plan space, exercising
// the EXODUS-style extensibility the paper claims for the optimizer
// ("Stubby allows new transformations to be added to extend the
// optimizer's functionality easily", Section 1).
//
// The scenario is the User-defined Logical Splits workload (Section 7.1):
// a producer job feeds two consumers that each analyze a disjoint key
// range. Stubby's built-in partition function transformation derives range
// split points from profile key samples; here we drop that row from the
// optimizer's transformation table (Options.DisablePartition, as the MRShare
// comparator does) and register a custom row that contributes split points
// from operator domain knowledge — "orders arrive in blocks of 100". Its
// proposals compete on estimated cost and are counted in Result.Yield() (the
// CLI's "-- transformations:" line: proposed/kept/chosen) like a built-in's
// and, when adopted, enable partition pruning at the consumers.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/stubby-mr/stubby"
)

// domainSplitPoints proposes range partitioning with fixed, operator-known
// split points for every reduce group whose output feeds filtered
// consumers. It never invents information: the proposal is checked against
// the group's partition constraints by the transformation machinery, and
// the optimizer adopts it only if the What-if estimate improves.
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
			// Only groups keyed on the known field, currently
			// hash-partitioned, with at least one filtered consumer.
			if len(g.KeyIn) == 0 || g.KeyIn[0] != d.Field || g.Part.SplitPoints != nil {
				continue
			}
			filtered := false
			for _, jc := range plan.Consumers(g.Output) {
				for _, b := range jc.MapBranches {
					if b.Input == g.Output && b.Filter != nil && b.Filter.Field == d.Field {
						filtered = true
					}
				}
			}
			if !filtered {
				continue
			}
			p := plan.Clone()
			pg := p.Job(id).Group(g.Tag)
			pg.Part.Type = stubby.RangePartitionType
			pg.Part.KeyFields = []int{0}
			pg.Part.SortFields = nil
			pg.Part.SplitPoints = clonePoints(d.Points)
			out = append(out, stubby.Proposal{
				Plan: p,
				Desc: fmt.Sprintf("domain-split-points(%s#%d)", id, g.Tag),
			})
		}
	}
	return out
}

func clonePoints(points []stubby.Tuple) []stubby.Tuple {
	out := make([]stubby.Tuple, len(points))
	for i, p := range points {
		out[i] = append(stubby.Tuple(nil), p...)
	}
	return out
}

func main() {
	// --- the US-style workload: producer + two range-filtered consumers --
	rng := rand.New(rand.NewSource(3))
	var rows []stubby.Pair
	for i := 0; i < 60000; i++ {
		rows = append(rows, stubby.Pair{
			Key:   stubby.T(int64(rng.Intn(1000))), // order in [0, 1000)
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

	bases := []*stubby.Dataset{{
		ID: "events", Base: true,
		KeyFields:   []string{"ord"},
		ValueFields: []string{"amount"},
	}}
	// The producer is a full sort of the events by order id — a job that
	// must use range partitioning (the compiler pins it with a partition
	// constraint) but has no split points, so without further help it runs
	// as a single reduce partition. The two consumers each analyze a
	// disjoint order range of the sorted output.
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
	`, bases, "splits")
	if err != nil {
		log.Fatal(err)
	}

	cluster := stubby.DefaultCluster()
	cluster.VirtualScale = 40000
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(cluster), stubby.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, w, dfs); err != nil {
		log.Fatal(err)
	}

	// Domain knowledge: orders arrive in blocks of 100.
	var points []stubby.Tuple
	for b := int64(100); b < 1000; b += 100 {
		points = append(points, stubby.T(b))
	}
	custom := domainSplitPoints{Field: "ord", Points: points}

	optimize := func(opt stubby.Options) float64 {
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
		return rep.Makespan
	}

	withoutExt := optimize(stubby.Options{Seed: 1, DisablePartition: true})
	withExt := optimize(stubby.Options{Seed: 1, DisablePartition: true,
		Custom: []stubby.Transformation{custom}})

	fmt.Printf("optimizer without the extension: %8.1fs simulated\n", withoutExt)
	fmt.Printf("optimizer with domain-split-points: %6.1fs simulated (%.2fx)\n",
		withExt, withoutExt/withExt)
	fmt.Println("the custom proposal wins only where the What-if estimate improves —")
	fmt.Println("the same cost-based adoption rule the built-in transformations face")
}
