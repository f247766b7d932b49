package bench

import (
	"fmt"
	"os"

	"github.com/stubby-mr/stubby/internal/catalog"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// Overlapping families: the workload shape cross-workflow sub-plan reuse is
// for. gen.Family's member 0 is a shared prefix; each later member appends
// its own suffix. The reuse figure's workloads are the consumers, members 1
// and 2 of five families, named F<seed>M<member>; the Reuse variant plans
// each against the catalog its family's member 0 published.

// familyConsumers lists the reuse figure's workloads.
var familyConsumers = func() (abbrs []string) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		for member := 1; member <= 2; member++ {
			abbrs = append(abbrs, familyAbbr(seed, member))
		}
	}
	return abbrs
}()

func familyAbbr(seed int64, member int) string { return fmt.Sprintf("F%dM%d", seed, member) }

// familyMember maps an F<seed>M<member> abbreviation to its family seed and
// member index.
func familyMember(abbr string) (seed int64, member int, ok bool) {
	_, err := fmt.Sscanf(abbr, "F%dM%d", &seed, &member)
	return seed, member, err == nil && member >= 0
}

func buildFamilyMember(seed int64, member int) *workloads.Workload {
	c := gen.Family(seed, member+1, gen.Options{})[member]
	return &workloads.Workload{
		Abbr:     familyAbbr(seed, member),
		Title:    fmt.Sprintf("Generated family %d, member %d", seed, member),
		Workflow: c.Workflow,
		DFS:      c.DFS,
		Cluster:  c.Cluster,
	}
}

// publishFamily runs member 0 of a consumer's family to completion and
// publishes its materialized intermediates to a fresh on-disk catalog. It
// returns the catalog and the post-run DFS: a plan that scans a stored result
// executes over the latter, which also holds the family's base data. A catalog
// per call keeps a cell's hit and miss counts its own, whatever ran before;
// done closes the catalog and removes its directory.
func (h *Harness) publishFamily(consumer string) (cat *catalog.Store, dfs *mrsim.DFS, done func(), err error) {
	seed, _, ok := familyMember(consumer)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%s is not a generated family member (F<seed>M<member>): it has no catalog to plan against", consumer)
	}
	producer, err := h.workload(familyAbbr(seed, 0))
	if err != nil {
		return nil, nil, nil, err
	}
	dfs = producer.DFS.Clone()
	if _, err := mrsim.NewEngine(producer.Cluster, dfs).RunWorkflow(producer.Workflow); err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp("", "stubby-bench-catalog")
	if err != nil {
		return nil, nil, nil, err
	}
	if cat, err = catalog.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	done = func() { cat.Close(); os.RemoveAll(dir) }
	if err := cat.PublishRun(producer.Workflow, dfs); err != nil {
		done()
		return nil, nil, nil, err
	}
	return cat, dfs, done, nil
}
