package rrs

import "testing"

// BenchmarkMinimize measures RRS over a 12-dimensional space with a cheap
// objective — the shape of one subplan's configuration search.
func BenchmarkMinimize(b *testing.B) {
	params := make([]Param, 12)
	target := make(Point, 12)
	for i := range params {
		params[i] = Param{Name: "p", Min: 0, Max: 100, Integer: i%2 == 0}
		target[i] = float64(10 * i % 100)
	}
	obj := sphere(target)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Minimize(params, obj, nil, Options{MaxEvals: 400, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
