package gen

import (
	"testing"

	"github.com/stubby-mr/stubby/internal/wf"
)

// TestFamilySharedPrefix pins the property the reuse catalog depends on:
// every member of a family re-derives the same prefix sub-DAG, so the
// rooted sub-plan fingerprint of every member-0 dataset is identical in
// every later member — despite the workflows having different names and
// different suffixes.
func TestFamilySharedPrefix(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		fam := Family(seed, 3, Options{})
		base := fam[0]
		for k := 1; k < len(fam); k++ {
			m := fam[k]
			if m.Workflow.Name == base.Workflow.Name {
				t.Errorf("seed %d: members 0 and %d share a workflow name %q", seed, k, m.Workflow.Name)
			}
			if len(m.Workflow.Jobs) <= len(base.Workflow.Jobs) {
				t.Errorf("seed %d member %d: %d jobs, want more than member 0's %d (suffix missing)",
					seed, k, len(m.Workflow.Jobs), len(base.Workflow.Jobs))
			}
			for _, d := range base.Workflow.Datasets {
				if d.Base {
					continue
				}
				fp0, ok := wf.SubplanFingerprint(base.Workflow, d.ID)
				if !ok {
					t.Fatalf("seed %d: member 0 dataset %s has no sub-fingerprint", seed, d.ID)
				}
				fpk, ok := wf.SubplanFingerprint(m.Workflow, d.ID)
				if !ok {
					t.Fatalf("seed %d member %d: dataset %s missing from member workflow", seed, k, d.ID)
				}
				if fp0 != fpk {
					t.Errorf("seed %d member %d: dataset %s sub-fingerprint diverged: %s vs %s",
						seed, k, d.ID, fp0, fpk)
				}
			}
			// One cluster model for the whole family: every member prices
			// reuse against the machines member 0 materialized on.
			if *m.Cluster != *base.Cluster {
				t.Errorf("seed %d member %d: cluster diverged: %+v vs %+v", seed, k, m.Cluster, base.Cluster)
			}
			// Identical base data, member-private DFS.
			ids0, idsK := base.DFS.IDs(), m.DFS.IDs()
			if len(ids0) != len(idsK) {
				t.Fatalf("seed %d member %d: DFS holds %d datasets, member 0 holds %d", seed, k, len(idsK), len(ids0))
			}
			for _, id := range ids0 {
				s0, _ := base.DFS.Get(id)
				sk, ok := m.DFS.Get(id)
				if !ok {
					t.Fatalf("seed %d member %d: DFS missing base %s", seed, k, id)
				}
				if s0.Records() != sk.Records() || s0.Bytes() != sk.Bytes() {
					t.Errorf("seed %d member %d: base %s content diverged", seed, k, id)
				}
			}
		}
	}
}

// TestFamilyDeterministic: same (seed, n, opt) → identical descriptors.
func TestFamilyDeterministic(t *testing.T) {
	a := Family(5, 3, Options{})
	b := Family(5, 3, Options{})
	for i := range a {
		if a[i].Descriptor() != b[i].Descriptor() {
			t.Errorf("member %d: Family is not deterministic", i)
		}
	}
}

// TestFamilyMembersValid: every member independently runs end to end.
func TestFamilyMembersValid(t *testing.T) {
	fam := Family(9, 3, Options{})
	for k, c := range fam {
		if _, err := c.Subject().Reference(); err != nil {
			t.Errorf("member %d: identity run failed: %v", k, err)
		}
	}
}

// TestFamilyPrefixIsGenerate: the prefix every member replays is Generate's
// own draw sequence, so member 0 — exactly the shared prefix — is the
// workflow Generate builds for the seed, under another name.
func TestFamilyPrefixIsGenerate(t *testing.T) {
	for seed := int64(1); seed <= CorpusSeeds; seed++ {
		member0 := Family(seed, 1, Options{})[0].Workflow
		generated := Generate(seed, Options{}).Workflow
		if a, b := wf.FingerprintWorkflow(member0), wf.FingerprintWorkflow(generated); a != b {
			t.Errorf("seed %d: Family(seed, 1)[0] fingerprints %s, Generate(seed) %s", seed, a, b)
		}
	}
}
