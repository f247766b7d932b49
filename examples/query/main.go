// Query: generate a MapReduce workflow from a dataflow query (the role Pig
// Latin plays in the paper's Figure 2) and let Stubby optimize it.
//
// The query is a small business report over a lineitem-like table: two
// filtered group-aggregates over the same source plus a top-5 ranking —
// the shape of the paper's Business Report Generation workload. The
// compiler derives the schema, filter, and dataset annotations from the
// query (Section 6), which is exactly the information Stubby's vertical
// packing, horizontal packing, and partition/configuration transformations
// need.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/stubby-mr/stubby"
)

const report = `
	li     = LOAD 'lineitem';

	-- two disjoint slices of the order range, analyzed differently
	SPLIT li INTO recent IF ord >= 6000, old IF ord < 6000;

	g1     = GROUP recent BY part;
	parts  = FOREACH g1 GENERATE group, COUNT(*) AS n, SUM(price) AS revenue;

	g2     = GROUP old BY supp;
	supps  = FOREACH g2 GENERATE group, COUNT(*) AS n, MAX(price) AS top_price;

	-- rank recent parts by revenue
	byrev  = ORDER parts BY revenue DESC;
	top5   = LIMIT byrev 5;

	STORE parts INTO 'part_report';
	STORE supps INTO 'supp_report';
	STORE top5  INTO 'top_parts';
`

func main() {
	// --- generate the lineitem table ------------------------------------
	rng := rand.New(rand.NewSource(11))
	var rows []stubby.Pair
	for i := 0; i < 80000; i++ {
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

	// --- compile the query to an annotated workflow ---------------------
	bases := []*stubby.Dataset{{
		ID: "lineitem", Base: true,
		KeyFields:   []string{"ord"},
		ValueFields: []string{"part", "supp", "price"},
	}}
	w, err := stubby.CompileQuery(report, bases, "report")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled plan (unoptimized, as a query front-end emits it):")
	fmt.Print(w.Summary())

	// --- profile, optimize, execute -------------------------------------
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
	res, err := sess.Optimize(ctx, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimized plan:")
	fmt.Print(res.Plan.Summary())

	before, err := sess.Run(ctx, dfs.Clone(), w)
	if err != nil {
		log.Fatal(err)
	}
	outDFS := dfs.Clone()
	after, err := sess.Run(ctx, outDFS, res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated runtime: %.1fs -> %.1fs (%.2fx speedup)\n",
		before.Makespan, after.Makespan, before.Makespan/after.Makespan)

	// --- show the ranked result -----------------------------------------
	top, _ := outDFS.Get("top_parts")
	fmt.Println("top parts by recent revenue:")
	pairs := top.AllPairs()
	stubby.SortPairs(pairs, nil)
	for _, p := range pairs {
		// top_parts records: key (rank), value (part, n, revenue)
		fmt.Printf("  #%d part=%v revenue=%.2f\n", p.Key[0], p.Value[0], p.Value[2])
	}
}
