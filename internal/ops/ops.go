// Package ops is a library of reusable map and reduce operators for
// building MapReduce workflows. Each constructor returns a wf.Stage whose
// semantics are simple enough to annotate mechanically — mirroring how the
// paper's Pig integration derives schema and filter annotations from query
// operators (Section 6) while the engine itself treats programs as black
// boxes.
package ops

import (
	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Src selects a field from an incoming record: either key position or
// value position.
type Src struct {
	// FromValue selects the value tuple instead of the key tuple.
	FromValue bool
	// Idx is the field position.
	Idx int
}

// K selects key field i.
func K(i int) Src { return Src{Idx: i} }

// V selects value field i.
func V(i int) Src { return Src{FromValue: true, Idx: i} }

func pick(s Src, key, value keyval.Tuple) keyval.Field {
	t := key
	if s.FromValue {
		t = value
	}
	if s.Idx < len(t) {
		return t[s.Idx]
	}
	return nil
}

// Identity passes records through unchanged.
func Identity(name string, cpu float64) wf.Stage {
	return wf.MapStage(name, func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, cpu)
}

// Rekey rebuilds the output key and value from selected input fields — the
// workhorse projection/regrouping map operator.
func Rekey(name string, cpu float64, keyFrom, valFrom []Src) wf.Stage {
	return wf.MapStage(name, func(k, v keyval.Tuple, emit wf.Emit) {
		nk := make(keyval.Tuple, len(keyFrom))
		for i, s := range keyFrom {
			nk[i] = pick(s, k, v)
		}
		nv := make(keyval.Tuple, len(valFrom))
		for i, s := range valFrom {
			nv[i] = pick(s, k, v)
		}
		emit(nk, nv)
	}, cpu)
}

// FilterInterval passes records whose selected field lies in the interval,
// then rekeys like Rekey. Pair it with a wf.Filter annotation on the branch
// so the optimizer can reason about it.
func FilterInterval(name string, cpu float64, field Src, iv keyval.Interval, keyFrom, valFrom []Src) wf.Stage {
	return wf.MapStage(name, func(k, v keyval.Tuple, emit wf.Emit) {
		if !iv.Contains(pick(field, k, v)) {
			return
		}
		nk := make(keyval.Tuple, len(keyFrom))
		for i, s := range keyFrom {
			nk[i] = pick(s, k, v)
		}
		nv := make(keyval.Tuple, len(valFrom))
		for i, s := range valFrom {
			nv[i] = pick(s, k, v)
		}
		emit(nk, nv)
	}, cpu)
}

// TagValue prepends a string tag to the value tuple — the classic
// repartition-join marker distinguishing input sides inside one group.
func TagValue(name string, cpu float64, tag string) wf.Stage {
	return wf.MapStage(name, func(k, v keyval.Tuple, emit wf.Emit) {
		nv := make(keyval.Tuple, 0, len(v)+1)
		nv = append(nv, tag)
		nv = append(nv, v...)
		emit(k, nv)
	}, cpu)
}

// --- reduce-side operators ---------------------------------------------------

func num(f keyval.Field) float64 {
	switch x := f.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	default:
		return 0
	}
}

// Sum groups and sums value field idx, emitting (key, sum).
func Sum(name string, cpu float64, idx int) wf.Stage {
	return wf.ReduceStage(name, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var s float64
		for _, v := range vs {
			s += num(v[idx])
		}
		emit(k, keyval.T(s))
	}, nil, cpu)
}

// SumCombiner is the algebraic combiner matching Sum on value field idx.
func SumCombiner(name string, cpu float64, idx int) wf.Stage {
	return wf.ReduceStage(name, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var s float64
		for _, v := range vs {
			s += num(v[idx])
		}
		out := make(keyval.Tuple, len(vs[0]))
		copy(out, vs[0])
		out[idx] = s
		emit(k, out)
	}, nil, cpu)
}

// SumAndMax emits (key, sum, max) of value field idx.
func SumAndMax(name string, cpu float64, idx int) wf.Stage {
	return wf.ReduceStage(name, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var s, m float64
		for i, v := range vs {
			x := num(v[idx])
			s += x
			if i == 0 || x > m {
				m = x
			}
		}
		emit(k, keyval.T(s, m))
	}, nil, cpu)
}

// Count emits (key, n) for each group.
func Count(name string, cpu float64) wf.Stage {
	return wf.ReduceStage(name, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		emit(k, keyval.T(int64(len(vs))))
	}, nil, cpu)
}

// Avg emits (key, mean) of value field idx.
func Avg(name string, cpu float64, idx int) wf.Stage {
	return wf.ReduceStage(name, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var s float64
		for _, v := range vs {
			s += num(v[idx])
		}
		emit(k, keyval.T(s/float64(len(vs))))
	}, nil, cpu)
}

// DistinctMark emits one record per group under a constant key — counting
// the output records counts the distinct group keys.
func DistinctMark(name string, cpu float64) wf.Stage {
	return wf.ReduceStage(name, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		emit(keyval.T(int64(0)), keyval.T(int64(1)))
	}, nil, cpu)
}

// LocalTopK is a map-side operator emitting the task-local top k records by
// value field idx under a constant key, so a downstream single-group reduce
// can merge them — the standard scalable top-K pattern.
func LocalTopK(name string, cpu float64, k int, idx int) wf.Stage {
	return wf.ReduceStage(name, func(key keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		top := topK(vs, k, idx)
		for _, v := range top {
			emit(keyval.T(int64(0)), v)
		}
	}, []int{}, cpu) // empty group fields: one group per task/stream
}

// MergeTopK merges candidate top lists into the global top k by value field
// idx, emitting them in decreasing order as (rank, record...).
func MergeTopK(name string, cpu float64, k int, idx int) wf.Stage {
	return wf.ReduceStage(name, func(key keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		top := topK(vs, k, idx)
		for i, v := range top {
			emit(keyval.T(int64(i+1)), v)
		}
	}, nil, cpu)
}

func topK(vs []keyval.Tuple, k, idx int) []keyval.Tuple {
	out := make([]keyval.Tuple, 0, k+1)
	for _, v := range vs {
		x := num(v[idx])
		pos := len(out)
		for pos > 0 && num(out[pos-1][idx]) < x {
			pos--
		}
		if pos >= k {
			continue
		}
		out = append(out, nil)
		copy(out[pos+1:], out[pos:])
		out[pos] = v
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}
