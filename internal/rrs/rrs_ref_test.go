package rrs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// minimizeRef is Minimize as it was before it drew into reusable buffers: a
// fresh Point per sample, the region center and the exploit center aliasing
// the winning sample. TestMinimizeMatchesReference holds Minimize to its
// trajectory — the RNG draws, their order and every evaluated point.
func minimizeRef(params []Param, obj Objective, initial Point, opt Options) Result {
	maxEvals := opt.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 100
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	evals := 0
	best := Result{Value: math.Inf(1)}
	eval := func(pt Point) float64 {
		evals++
		v := obj(pt)
		if v < best.Value {
			best.Value = v
			best.Best = append(Point(nil), pt...)
		}
		return v
	}
	if initial != nil {
		pt := make(Point, len(params))
		for i, p := range params {
			pt[i] = p.Clamp(initial[i])
		}
		eval(pt)
	}
	exploreN := int(math.Ceil(math.Log(1-confidence) / math.Log(1-percentile)))
	uniform := func() Point {
		pt := make(Point, len(params))
		for i, p := range params {
			pt[i] = p.Clamp(p.Min + rng.Float64()*(p.Max-p.Min))
		}
		return pt
	}
	neighbor := func(center Point, radius float64) Point {
		pt := make(Point, len(params))
		for i, p := range params {
			span := (p.Max - p.Min) * radius
			v := center[i] + (rng.Float64()*2-1)*span
			pt[i] = p.Clamp(v)
		}
		return pt
	}
	if opt.ExploreOnly {
		for evals < maxEvals {
			eval(uniform())
		}
		best.Evals = evals
		return best
	}
	for evals < maxEvals {
		regionCenter := uniform()
		regionValue := eval(regionCenter)
		for i := 1; i < exploreN && evals < maxEvals; i++ {
			pt := uniform()
			if v := eval(pt); v < regionValue {
				regionValue = v
				regionCenter = pt
			}
		}
		radius := percentile
		center, centerVal := regionCenter, regionValue
		for radius > minRadius && evals < maxEvals {
			improved := false
			for s := 0; s < exploitSamples && evals < maxEvals; s++ {
				pt := neighbor(center, radius)
				if v := eval(pt); v < centerVal {
					center, centerVal = pt, v
					improved = true
					break
				}
			}
			if !improved {
				radius *= shrinkFactor
			}
		}
	}
	best.Evals = evals
	return best
}

// recorder wraps an objective and keeps a copy of every point it is asked
// to evaluate.
func recorder(obj Objective, trail *[]Point) Objective {
	return func(p Point) float64 {
		*trail = append(*trail, append(Point(nil), p...))
		return obj(p)
	}
}

func TestMinimizeMatchesReference(t *testing.T) {
	params := make([]Param, 6)
	target := make(Point, len(params))
	for i := range params {
		params[i] = Param{Name: "p", Min: -5, Max: 50, Integer: i%3 == 0}
		target[i] = float64(7 * i % 40)
	}
	initial := Point{1, 2, 3, 4, 5, 6}
	for _, explore := range []bool{false, true} {
		for seed := int64(0); seed < 8; seed++ {
			for _, init := range []Point{nil, initial} {
				opt := Options{MaxEvals: 300, Seed: seed, ExploreOnly: explore}
				var got, want []Point
				res, err := Minimize(params, recorder(sphere(target), &got), init, opt)
				if err != nil {
					t.Fatal(err)
				}
				ref := minimizeRef(params, recorder(sphere(target), &want), init, opt)
				if len(got) != len(want) {
					t.Fatalf("explore=%v seed=%d: %d evaluations, reference %d", explore, seed, len(got), len(want))
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("explore=%v seed=%d: evaluation %d at %v, reference %v", explore, seed, i, got[i], want[i])
					}
				}
				if res.Value != ref.Value || res.Evals != ref.Evals || !slices.Equal(res.Best, ref.Best) {
					t.Fatalf("explore=%v seed=%d: result %+v, reference %+v", explore, seed, res, ref)
				}
			}
		}
	}
}

// TestMinimizeAllocsFlat pins Minimize's allocations independent of its
// evaluation budget: the search draws every sample into its own two buffers,
// so only setup and the incumbent's copy allocate.
func TestMinimizeAllocsFlat(t *testing.T) {
	params := make([]Param, 12)
	target := make(Point, len(params))
	for i := range params {
		params[i] = Param{Name: "p", Min: 0, Max: 100, Integer: i%2 == 0}
		target[i] = float64(10 * i % 100)
	}
	obj := sphere(target)
	initial := make(Point, len(params))
	for _, explore := range []bool{false, true} {
		var counts []float64
		for _, evals := range []int{50, 400, 3000} {
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if _, err := Minimize(params, obj, initial, Options{MaxEvals: evals, Seed: 3, ExploreOnly: explore}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Errorf("explore=%v: allocations per Minimize grow with MaxEvals 50/400/3000: %v", explore, counts)
		}
		t.Logf("explore=%v: %v allocations per Minimize", explore, counts[0])
	}
}
