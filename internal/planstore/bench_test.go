package planstore

import (
	"bytes"
	"testing"
)

// benchRecords and benchDocBytes size the store the benchmarks run
// against: 2,000 records of 2 KB each.
const (
	benchRecords  = 2000
	benchDocBytes = 2048
)

// benchDoc returns a benchDocBytes-long document unique to i.
func benchDoc(i int) []byte {
	doc := bytes.Repeat([]byte{'x'}, benchDocBytes)
	copy(doc, testDoc(i))
	return doc
}

// filledStore opens a store in a fresh directory and puts benchRecords
// records into it.
func filledStore(b *testing.B) (*Store, string) {
	b.Helper()
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRecords; i++ {
		if err := s.Put(testKey(i), benchDoc(i)); err != nil {
			b.Fatal(err)
		}
	}
	return s, dir
}

// BenchmarkStorePut times one Put — one append plus one fsync — into a
// store that already holds benchRecords records.
func BenchmarkStorePut(b *testing.B) {
	s, _ := filledStore(b)
	defer s.Close()
	docs := make([][]byte, b.N)
	for i := range docs {
		docs[i] = benchDoc(benchRecords + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(testKey(benchRecords+i), docs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpen times reopening a closed store of benchRecords
// records: the segment scan that rebuilds the index, plus claiming a
// fresh segment. The matching Close is not timed.
func BenchmarkStoreOpen(b *testing.B) {
	s, dir := filledStore(b)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := r.Stats(); st.Entries != benchRecords {
			b.Fatalf("reopened store holds %d entries, want %d", st.Entries, benchRecords)
		}
		r.Close()
		b.StartTimer()
	}
}
