// Package rrs implements Recursive Random Search (Ye & Kalyanaraman,
// SIGMETRICS 2003), the black-box optimizer Stubby uses to search the
// high-dimensional job configuration space (Section 4.2).
//
// RRS alternates two phases: EXPLORE draws uniform samples to find a
// promising region (a point whose value is in the best r-percentile with
// confidence p), then EXPLOIT samples recursively inside a shrinking
// neighborhood of the incumbent, re-centering on improvement and shrinking
// on failure, until the neighborhood collapses; then exploration restarts.
// The search is deterministic for a fixed seed.
package rrs

import (
	"fmt"
	"math"
	"math/rand"
)

// Param describes one search dimension.
type Param struct {
	// Name labels the dimension for diagnostics.
	Name string
	// Min and Max bound the dimension (inclusive).
	Min, Max float64
	// Integer rounds sampled values to integers (booleans are Integer
	// dimensions over [0,1]).
	Integer bool
}

// Clamp projects v into the parameter's domain.
func (p Param) Clamp(v float64) float64 {
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	if p.Integer {
		v = math.Round(v)
		if v < p.Min {
			v = math.Ceil(p.Min)
		}
		if v > p.Max {
			v = math.Floor(p.Max)
		}
	}
	return v
}

// Point is a position in the search space, one value per Param.
type Point []float64

// Objective evaluates a point; lower is better. The point is a buffer the
// search draws into and reuses: an objective must neither modify nor retain
// it past the call.
type Objective func(Point) float64

// The search's shape. No caller tunes it, so it is fixed; radii are in
// normalized [0,1] coordinates.
const (
	// confidence p and percentile r size the exploration phase:
	// n = ln(1-p)/ln(1-r) samples (44); percentile is also the initial
	// exploit radius.
	confidence = 0.99
	percentile = 0.1
	// shrinkFactor contracts the exploit neighborhood after exploitSamples
	// failed samples at one radius; minRadius ends exploitation.
	shrinkFactor   = 0.5
	minRadius      = 0.01
	exploitSamples = 5
)

// Options tunes the search.
type Options struct {
	// MaxEvals bounds objective evaluations (default 100).
	MaxEvals int
	// Seed makes the search deterministic.
	Seed int64
	// ExploreOnly disables the recursive exploitation phase, degrading
	// the search to pure uniform random sampling under the same
	// evaluation budget — the ablation baseline isolating the value of
	// RRS's recursion (Section 4.2).
	ExploreOnly bool
}

// Result reports the best point found and search statistics.
type Result struct {
	Best  Point
	Value float64
	Evals int
}

// Minimize runs RRS over the given parameter space. Initial, if non-nil, is
// evaluated first so the search never returns something worse than the
// incumbent configuration.
func Minimize(params []Param, obj Objective, initial Point, opt Options) (Result, error) {
	if len(params) == 0 {
		return Result{}, fmt.Errorf("rrs: empty parameter space")
	}
	for _, p := range params {
		if p.Min > p.Max {
			return Result{}, fmt.Errorf("rrs: param %q has Min > Max", p.Name)
		}
	}
	maxEvals := opt.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 100
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// The search draws into buffers it owns: the incumbent region's center
	// and the candidate being evaluated, swapped when the candidate wins.
	// best.Best is the one copy, made on an improvement.
	n := len(params)
	buf := make(Point, 2*n)
	center, cand := buf[:n:n], buf[n:]
	evals := 0
	best := Result{Value: math.Inf(1)}
	eval := func(pt Point) float64 {
		evals++
		v := obj(pt)
		if v < best.Value {
			best.Value = v
			best.Best = append(best.Best[:0], pt...)
		}
		return v
	}
	if initial != nil {
		for i, p := range params {
			cand[i] = p.Clamp(initial[i])
		}
		eval(cand)
	}

	exploreN := int(math.Ceil(math.Log(1-confidence) / math.Log(1-percentile)))

	uniform := func(pt Point) {
		for i, p := range params {
			pt[i] = p.Clamp(p.Min + rng.Float64()*(p.Max-p.Min))
		}
	}
	neighbor := func(pt, center Point, radius float64) {
		for i, p := range params {
			span := (p.Max - p.Min) * radius
			v := center[i] + (rng.Float64()*2-1)*span
			pt[i] = p.Clamp(v)
		}
	}

	if opt.ExploreOnly {
		for evals < maxEvals {
			uniform(cand)
			eval(cand)
		}
		best.Evals = evals
		return best, nil
	}

	for evals < maxEvals {
		// EXPLORE: uniform sampling to find a promising region.
		uniform(center)
		centerVal := eval(center)
		for i := 1; i < exploreN && evals < maxEvals; i++ {
			uniform(cand)
			if v := eval(cand); v < centerVal {
				center, cand, centerVal = cand, center, v
			}
		}
		// EXPLOIT: recursive shrink-and-recenter around the region.
		radius := percentile // initial neighborhood size
		for radius > minRadius && evals < maxEvals {
			improved := false
			for s := 0; s < exploitSamples && evals < maxEvals; s++ {
				neighbor(cand, center, radius)
				if v := eval(cand); v < centerVal {
					center, cand, centerVal = cand, center, v
					improved = true // re-center, keep radius
					break
				}
			}
			if !improved {
				radius *= shrinkFactor
			}
		}
	}
	best.Evals = evals
	return best, nil
}
