package main

import (
	"fmt"
	"time"

	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/workloads"
)

const (
	// sizeFactor scales the materialized record counts of the paper
	// workflows; the profiles, and with them the request documents and the
	// optimizer's search, do not depend on it.
	sizeFactor = 0.25
	// profileFraction is the sample the profiler executes.
	profileFraction = 0.5
)

// input is one paper workflow, built and profiled from the run's seed.
type input struct {
	abbr       string
	wl         *workloads.Workload
	buildMS    float64
	annotateMS float64
}

// buildInputs generates and profiles the named workflows. The same seed
// gives the same datasets, profiles and therefore request documents.
func buildInputs(seed int64, abbrs []string) ([]*input, error) {
	ins := make([]*input, 0, len(abbrs))
	for _, abbr := range abbrs {
		t0 := time.Now()
		wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: sizeFactor, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", abbr, err)
		}
		t1 := time.Now()
		if err := profile.NewProfiler(wl.Cluster, profileFraction, seed+17).Annotate(wl.Workflow, wl.DFS); err != nil {
			return nil, fmt.Errorf("profile %s: %w", abbr, err)
		}
		ins = append(ins, &input{abbr: abbr, wl: wl,
			buildMS: ms(t1.Sub(t0)), annotateMS: ms(time.Since(t1))})
	}
	return ins, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
