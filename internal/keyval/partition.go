package keyval

import (
	"fmt"
	"sort"
	"strings"
)

// PartitionType identifies how map-output keys are assigned to reduce tasks
// (and therefore how a job's output dataset is partitioned on the DFS).
type PartitionType int

const (
	// HashPartition is MapReduce's default: hash of the partition fields
	// modulo the number of reduce tasks.
	HashPartition PartitionType = iota
	// RangePartition assigns keys to partitions by comparing the partition
	// fields against an ordered list of split points.
	RangePartition
)

func (t PartitionType) String() string {
	switch t {
	case HashPartition:
		return "hash"
	case RangePartition:
		return "range"
	default:
		return fmt.Sprintf("PartitionType(%d)", int(t))
	}
}

// PartitionSpec describes the partition function of a MapReduce job: which
// key fields determine the partition, how the assignment is made, and the
// per-partition sort order. It is the object rewritten by Stubby's partition
// function transformation and by the postconditions of vertical packing.
type PartitionSpec struct {
	// Type selects hash or range partitioning.
	Type PartitionType
	// KeyFields are indices into the map-output key tuple used for
	// partitioning. Nil means all key fields, in order.
	KeyFields []int
	// SortFields are indices into the map-output key tuple defining the
	// per-partition sort order. Nil means all key fields, in order.
	SortFields []int
	// SplitPoints are the range boundaries (projections onto KeyFields),
	// in ascending order, for RangePartition. n split points define n+1
	// partitions; a key k goes to the first partition whose upper split
	// point is > k (the last partition is unbounded above). Split points
	// are shared by specs, the layouts derived from them and plan clones
	// (wf.ReduceGroup.Clone, wf.Layout.Clone), and are never written in
	// place; PartitionSpec.Clone is the one independent copy.
	SplitPoints []Tuple
}

// EffectiveKeyFields resolves KeyFields against a key width: nil expands to
// [0..width).
func (s PartitionSpec) EffectiveKeyFields(width int) []int {
	if s.KeyFields != nil {
		return s.KeyFields
	}
	return identity(width)
}

// EffectiveSortFields resolves SortFields against a key width.
func (s PartitionSpec) EffectiveSortFields(width int) []int {
	if s.SortFields != nil {
		return s.SortFields
	}
	return identity(width)
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// NumPartitions returns how many partitions the spec produces when the job
// is configured with numReduce reduce tasks. Range partitioning is pinned to
// len(SplitPoints)+1 partitions regardless of the configured reducer count.
func (s PartitionSpec) NumPartitions(numReduce int) int {
	if s.Type == RangePartition {
		return len(s.SplitPoints) + 1
	}
	if numReduce < 1 {
		return 1
	}
	return numReduce
}

// Partition assigns a map-output key to a partition in [0, numPartitions).
func (s PartitionSpec) Partition(key Tuple, numPartitions int) int {
	if numPartitions <= 1 {
		return 0
	}
	switch s.Type {
	case HashPartition:
		fields := s.KeyFields // nil hashes the whole key
		return int(Hash(key, fields) % uint64(numPartitions))
	case RangePartition:
		proj := Project(key, s.EffectiveKeyFields(len(key)))
		idx := sort.Search(len(s.SplitPoints), func(i int) bool {
			return Compare(proj, s.SplitPoints[i]) < 0
		})
		if idx >= numPartitions {
			idx = numPartitions - 1
		}
		return idx
	default:
		panic(fmt.Sprintf("keyval: unknown partition type %v", s.Type))
	}
}

// Validate checks internal consistency: split points must be strictly
// ascending and present only for range partitioning.
func (s PartitionSpec) Validate() error {
	if s.Type == HashPartition && len(s.SplitPoints) > 0 {
		return fmt.Errorf("keyval: hash partition spec must not carry split points")
	}
	for i := 1; i < len(s.SplitPoints); i++ {
		if Compare(s.SplitPoints[i-1], s.SplitPoints[i]) >= 0 {
			return fmt.Errorf("keyval: split points not strictly ascending at %d: %v >= %v",
				i, s.SplitPoints[i-1], s.SplitPoints[i])
		}
	}
	return nil
}

// String renders the spec compactly, e.g. "hash(0,1) sort(1,0)" or
// "range(0) splits=3". Nil field lists (meaning "all key fields") render
// as "*".
func (s PartitionSpec) String() string {
	var b strings.Builder
	b.WriteString(s.Type.String())
	b.WriteByte('(')
	b.WriteString(fmtFields(s.KeyFields))
	b.WriteByte(')')
	b.WriteString(" sort(")
	b.WriteString(fmtFields(s.SortFields))
	b.WriteByte(')')
	if len(s.SplitPoints) > 0 {
		fmt.Fprintf(&b, " splits=%d", len(s.SplitPoints))
	}
	return b.String()
}

func fmtFields(idx []int) string {
	if idx == nil {
		return "*"
	}
	var b strings.Builder
	for i, f := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", f)
	}
	return b.String()
}

// Clone deep-copies the spec, split points included.
func (s PartitionSpec) Clone() PartitionSpec {
	out := s
	// Nil means "all key fields" while empty means "none": preserve
	// nil-ness exactly (append([]int(nil), empty...) would collapse it).
	if s.KeyFields != nil {
		out.KeyFields = make([]int, len(s.KeyFields))
		copy(out.KeyFields, s.KeyFields)
	}
	if s.SortFields != nil {
		out.SortFields = make([]int, len(s.SortFields))
		copy(out.SortFields, s.SortFields)
	}
	if s.SplitPoints != nil {
		out.SplitPoints = make([]Tuple, len(s.SplitPoints))
		for i, sp := range s.SplitPoints {
			out.SplitPoints[i] = Clone(sp)
		}
	}
	return out
}

// Equal reports whether two specs describe the same partition function.
func (s PartitionSpec) Equal(o PartitionSpec) bool {
	if s.Type != o.Type || !intsEqual(s.KeyFields, o.KeyFields) || !intsEqual(s.SortFields, o.SortFields) {
		return false
	}
	if len(s.SplitPoints) != len(o.SplitPoints) {
		return false
	}
	for i := range s.SplitPoints {
		if Compare(s.SplitPoints[i], o.SplitPoints[i]) != 0 {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortPairs sorts pairs in place by the projection of the key onto fields,
// breaking ties on the full key and then the full value so the order is
// deterministic.
func SortPairs(pairs []Pair, fields []int) {
	sort.SliceStable(pairs, func(i, j int) bool {
		if c := CompareOn(pairs[i].Key, pairs[j].Key, fields); c != 0 {
			return c < 0
		}
		if c := Compare(pairs[i].Key, pairs[j].Key); c != 0 {
			return c < 0
		}
		return Compare(pairs[i].Value, pairs[j].Value) < 0
	})
}

// SortTuples sorts tuples in place in full lexicographic order.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}

// IsSortedOn reports whether pairs are non-decreasing on the key projection.
func IsSortedOn(pairs []Pair, fields []int) bool {
	for i := 1; i < len(pairs); i++ {
		if CompareOn(pairs[i-1].Key, pairs[i].Key, fields) > 0 {
			return false
		}
	}
	return true
}

// EquiDepthSplitPoints derives n-1 split points producing n roughly equally
// loaded partitions from a sample of keys (projected onto fields). The
// sample is sorted and quantile boundaries are chosen; duplicate boundaries
// are dropped, so fewer than n-1 points may be returned for low-cardinality
// samples.
func EquiDepthSplitPoints(sample []Tuple, fields []int, n int) []Tuple {
	if n <= 1 || len(sample) == 0 {
		return nil
	}
	proj := make([]Tuple, len(sample))
	for i, t := range sample {
		if fields == nil {
			proj[i] = Clone(t)
		} else {
			proj[i] = Project(t, fields)
		}
	}
	sort.Slice(proj, func(i, j int) bool { return Compare(proj[i], proj[j]) < 0 })
	var points []Tuple
	for i := 1; i < n; i++ {
		idx := i * len(proj) / n
		if idx >= len(proj) {
			idx = len(proj) - 1
		}
		p := proj[idx]
		if len(points) == 0 || Compare(points[len(points)-1], p) < 0 {
			points = append(points, p)
		}
	}
	return points
}
