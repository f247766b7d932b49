package stubby_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/stubby-mr/stubby/internal/gen"
)

// TestGenCorpusDescriptors locks the generator's output for the corpus
// seeds into reviewable golden files. Any change to the generator — new
// templates, probability shifts, data tweaks — changes descriptors and
// fails here until the refreshed corpus is reviewed and committed:
//
//	go test -run TestGenCorpusDescriptors -update .
//
// Updating is forbidden in CI (like the plan snapshots), so generator
// drift is always an explicit diff. Reproduce any corpus case against every
// planner with
// `go test -run 'TestGeneratedPlannerEquivalenceAndDominance/seedN$' -v ./internal/baselines`.
func TestGenCorpusDescriptors(t *testing.T) {
	if *update && os.Getenv("CI") != "" {
		t.Fatal("-update is forbidden in CI: regenerate the corpus locally and commit the diff")
	}
	// gen.CorpusSeeds golden descriptors, one per seed: the same seeds
	// prime the gen package's fuzz targets, so the corpus is simultaneously
	// the fuzzers' starting population and the generator's drift detector.
	for seed := int64(1); seed <= gen.CorpusSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got := gen.Generate(seed, gen.Options{}).Descriptor()
			path := filepath.Join("testdata", "gen", fmt.Sprintf("seed-%02d.golden", seed))
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestGenCorpusDescriptors -update .`): %v", err)
			}
			if string(want) != got {
				t.Errorf("generator drift for seed %d: descriptor differs from %s\n--- got\n%s\n--- want\n%s",
					seed, path, got, want)
			}
		})
	}
}
