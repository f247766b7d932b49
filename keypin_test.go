package stubby_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/wf"
)

// TestOnDiskKeysPinned pins the digests that existing plan stores and reuse
// catalogs are keyed by: the content address of one fixed plan-store key,
// and — for the eight paper workloads at the differential suite's size and
// seed — the workflow fingerprint (the plan store's Plan component) and the
// sub-plan fingerprint of every sink (the catalog's key). The golden was
// written by the code that predates the hasher and estimate-cache moves; a
// refactor that re-keys every stored plan fails here instead of silently
// turning every store into misses. (The cluster component is pinned beside
// ClusterFingerprint in internal/whatif.) -update is forbidden in CI.
func TestOnDiskKeysPinned(t *testing.T) {
	if *update && os.Getenv("CI") != "" {
		t.Fatal("-update is forbidden in CI: on-disk keys must not change; regenerate locally only with a migration story")
	}
	var b strings.Builder
	key := planstore.Key{
		Plan:    wf.Fingerprint{0x0123456789abcdef, 0xfedcba9876543210},
		Cluster: 0x1122334455667788,
		Planner: "stubby",
		Seed:    42,
	}
	fmt.Fprintf(&b, "address %s\n", key.Address())
	wls := differentialWorkloads(t)
	for _, abbr := range stubby.Workloads() {
		w := wls[abbr].Workflow
		fmt.Fprintf(&b, "%s workflow %s\n", abbr, wf.FingerprintWorkflow(w))
		for _, d := range w.SinkDatasets() {
			fp, ok := wf.SubplanFingerprint(w, d.ID)
			if !ok {
				t.Fatalf("%s: no sub-plan fingerprint for sink %s", abbr, d.ID)
			}
			fmt.Fprintf(&b, "%s subplan %s %s\n", abbr, d.ID, fp)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "keys.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (it is never regenerated by a refactor): %v", err)
	}
	if string(want) != got {
		t.Errorf("on-disk keys changed: every existing plan store and reuse catalog would be re-keyed.\n--- want\n%s--- got\n%s", want, got)
	}
}
