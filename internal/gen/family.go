package gen

import (
	"fmt"
	"math/rand"
)

// Family builds n cases whose workflows share a common prefix sub-DAG —
// identical base datasets (same IDs, same ingested content) feeding an
// identical chain of prefix jobs — and then diverge: member 0 is exactly
// the shared prefix, and each later member appends its own small suffix of
// jobs consuming the prefix's tail dataset. All members share one cluster
// model, and each member carries its own DFS holding the same base data.
//
// This is the workload shape sub-plan reuse (ReStore-style) is for: run
// member 0 to completion with a reuse catalog attached and every prefix
// dataset's rooted sub-fingerprint maps to a materialized result; optimize
// any later member against that catalog and its prefix sub-DAG is
// replaceable by scans of the stored datasets. The prefix replay is exact —
// every member re-derives it from the same seeded rng sequence — so rooted
// sub-plan fingerprints collide across members by construction (they are
// insensitive to the workflow names, which differ per member).
func Family(seed int64, n int, opt Options) []*Case {
	opt = opt.withDefaults()
	out := make([]*Case, n)
	for m := range out {
		out[m] = familyMember(seed, m, opt)
	}
	return out
}

func familyMember(seed int64, member int, opt Options) *Case {
	// Shared prefix: Generate's own draw sequence, replayed from the same
	// seed for every member, so bases and prefix jobs are identical across
	// the family (and across Generate(seed) itself).
	b := newBuilder(seed, fmt.Sprintf("FAM%d-%d", seed, member), opt)
	b.drawWorkflow()

	// The divergence point: the most recently produced dataset. Members
	// past the first consume it, which also guarantees the rooted sub-DAG
	// at the tail has a downstream consumer (reuse never rewrites sinks).
	tail := b.pool[len(b.pool)-1]
	if member > 0 {
		b.rng = rand.New(rand.NewSource(seed ^ 0x5eed5eed ^ int64(member)*0x9e3779b9))
		cur := tail
		for i, nSuffix := 0, 1+b.rng.Intn(2); i < nSuffix; i++ {
			if b.rng.Intn(2) == 0 {
				cur = b.filterMap(cur)
			} else {
				cur = b.groupAgg(cur)
			}
		}
	}

	// The cluster draw runs on a member-independent rng (suffixes consume
	// different amounts of member-specific randomness) and the DFS holds
	// only base data, identical across members — so every member prices
	// against the same machine model.
	b.rng = rand.New(rand.NewSource(seed ^ 0x5eed5eed ^ 0x7a57e))
	return b.finish(seed)
}
