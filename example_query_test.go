package stubby_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/stubby-mr/stubby"
)

// ExampleCompileQuery generates a MapReduce workflow from a dataflow query
// (the role Pig Latin plays in the paper's Figure 2) and lets Stubby
// optimize it. The query is a small business report over a lineitem-like
// table: two filtered group-aggregates over disjoint slices of the source
// plus a top-5 ranking. The compiler derives the schema, filter and dataset
// annotations from the query (Section 6). Here the search finds nothing to
// pack: the optimized plan keeps the compiled plan's 4 jobs, and its 20.7x
// simulated speedup comes from the configuration transformations alone
// (held to 16 evaluations per subplan, Options.RRSEvals, to keep the
// example quick).
func ExampleCompileQuery() {
	rng := rand.New(rand.NewSource(11))
	var rows []stubby.Pair
	for i := 0; i < 8000; i++ {
		rows = append(rows, stubby.Pair{
			Key: stubby.T(int64(rng.Intn(10000))), // ord
			Value: stubby.T(
				int64(rng.Intn(400)),        // part
				int64(rng.Intn(50)),         // supp
				float64(rng.Intn(900))+0.99, // price
			),
		})
	}
	dfs := stubby.NewDFS()
	if err := dfs.Ingest("lineitem", rows, stubby.IngestSpec{
		NumPartitions: 24,
		KeyFields:     []string{"ord"},
		Layout:        stubby.Layout{PartFields: []string{"ord"}},
	}); err != nil {
		log.Fatal(err)
	}
	bases := []*stubby.Dataset{{
		ID: "lineitem", Base: true,
		KeyFields:   []string{"ord"},
		ValueFields: []string{"part", "supp", "price"},
	}}
	w, err := stubby.CompileQuery(`
		li     = LOAD 'lineitem';
		SPLIT li INTO recent IF ord >= 6000, old IF ord < 6000;
		g1     = GROUP recent BY part;
		parts  = FOREACH g1 GENERATE group, COUNT(*) AS n, SUM(price) AS revenue;
		g2     = GROUP old BY supp;
		supps  = FOREACH g2 GENERATE group, COUNT(*) AS n, MAX(price) AS top_price;
		byrev  = ORDER parts BY revenue DESC;
		top5   = LIMIT byrev 5;
		STORE parts INTO 'part_report';
		STORE supps INTO 'supp_report';
		STORE top5  INTO 'top_parts';
	`, bases, "report")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(w.Summary())

	cluster := stubby.DefaultCluster()
	cluster.VirtualScale = 400000
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(cluster), stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 16}))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, w, dfs); err != nil {
		log.Fatal(err)
	}
	res, err := sess.Optimize(ctx, w)
	if err != nil {
		log.Fatal(err)
	}
	before, err := sess.Run(ctx, dfs.Clone(), w)
	if err != nil {
		log.Fatal(err)
	}
	out := dfs.Clone()
	after, err := sess.Run(ctx, out, res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized: %d jobs, same jobs as compiled: %v\n",
		len(res.Plan.Jobs), res.Plan.Summary() == w.Summary())
	fmt.Printf("simulated speedup: %.1fx\n", before.Makespan/after.Makespan)

	top, _ := out.Get("top_parts")
	pairs := top.AllPairs()
	stubby.SortPairs(pairs, nil)
	for _, p := range pairs {
		// top_parts records: key (rank), value (part, n, revenue)
		fmt.Printf("#%d part=%v revenue=%.2f\n", p.Key[0], p.Value[0], p.Value[2])
	}
	// Output:
	// workflow report: 4 jobs, 5 datasets
	//   Q1       map+reduce in=[lineitem] out=[parts] branches=1 groups=1 origin=[Q1]
	//   Q2       map+reduce in=[lineitem] out=[supp_report] branches=1 groups=1 origin=[Q2]
	//   Q3       map+reduce in=[parts] out=[top_parts] branches=1 groups=1 origin=[Q3]
	//   Q4       map-only   in=[parts] out=[part_report] branches=1 groups=1 origin=[Q4]
	// optimized: 4 jobs, same jobs as compiled: true
	// simulated speedup: 20.7x
	// #1 part=312 revenue=8266.86
	// #2 part=135 revenue=8171.84
	// #3 part=108 revenue=7755.83
	// #4 part=210 revenue=7366.86
	// #5 part=290 revenue=7357.86
}
