package store

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/provenance"
)

// fillTraces commits n traces named t-0 … t-(n-1) in batches, each of
// reqs requisitions with distinct indexed reqIDs and one person.
func fillTraces(t testing.TB, s *Store, n, reqs int) {
	t.Helper()
	const perBatch = 500
	for lo := 0; lo < n; lo += perBatch {
		var b Batch
		for i := lo; i < min(lo+perBatch, n); i++ {
			app := fmt.Sprintf("t-%d", i)
			for j := 0; j < reqs; j++ {
				b.Nodes = append(b.Nodes, mkReq(fmt.Sprintf("r-%d-%d", i, j), app, fmt.Sprintf("REQ-%d-%d", i, j)))
			}
			b.Nodes = append(b.Nodes, mkPerson(fmt.Sprintf("p-%d", i), app, "who"))
		}
		for _, err := range s.Commit(b).Nodes {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkCommitUnderReader is one commit as the continuous checker sees
// it, at 1k, 10k and 50k resident traces of four records: a single-node
// PutNode on an existing trace followed by a ViewTrace of it. The read
// makes the next commit publish a snapshot, so every op pays the first
// write after a publish; its cost should depend on the records written,
// not on how many other traces are resident.
func BenchmarkCommitUnderReader(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("traces=%d", n), func(b *testing.B) {
			s := memStore(b)
			fillTraces(b, s, n, 3)
			read := func(g *provenance.Graph, ver uint64) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app := fmt.Sprintf("t-%d", i*7919%n)
				if err := s.PutNode(mkReq(fmt.Sprintf("x-%d", i), app, fmt.Sprintf("X-%d", i))); err != nil {
					b.Fatal(err)
				}
				if err := s.ViewTrace(app, read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDemotionReturnsMemory: demoting 90% of 20,000 resident traces gives
// their memory back. After a GC the store's live heap is at most twice
// that of a store that only ever held the 2,000 survivors, plus the
// resident index of the sealed segment, which the survivors' store has no
// need of. A store that kept the demoted traces' graph and index entries
// at their peak size (Go maps that are never rebuilt) holds about three
// times the survivors' heap beyond that index.
func TestDemotionReturnsMemory(t *testing.T) {
	const n, keep = 20000, 2000
	heapOf := func(fill func(s *Store)) (heap, index uint64) {
		base := liveHeap()
		s := tierStore(t, t.TempDir(), nil)
		fill(s)
		heap = liveHeap() - base
		for _, seg := range s.Segments() {
			index += uint64(seg.IndexBytes)
		}
		runtime.KeepAlive(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return heap, index
	}
	demoted, index := heapOf(func(s *Store) {
		fillTraces(t, s, n, 3)
		cold := make([]string, 0, n-keep)
		for i := keep; i < n; i++ {
			cold = append(cold, fmt.Sprintf("t-%d", i))
		}
		if err := s.DemoteTraces(cold...); err != nil {
			t.Fatal(err)
		}
		if got := s.Tiering().ResidentTraces; got != keep {
			t.Fatalf("%d resident traces after demotion, want %d", got, keep)
		}
		// One more commit: the committer holds on to its last request,
		// here the demotion's 18,000 markers, until the next one.
		if err := s.PutNode(mkPerson("p-late", "t-0", "late")); err != nil {
			t.Fatal(err)
		}
	})
	survivors, _ := heapOf(func(s *Store) {
		fillTraces(t, s, keep, 3)
		if err := s.PutNode(mkPerson("p-late", "t-0", "late")); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("live heap: %d KiB after demoting %d of %d traces (sealed index %d KiB), %d KiB holding only the survivors",
		demoted>>10, n-keep, n, index>>10, survivors>>10)
	if demoted > 2*survivors+index {
		t.Fatalf("live heap after demotion %d KiB > 2 × %d KiB of the survivors' store + %d KiB of sealed index",
			demoted>>10, survivors>>10, index>>10)
	}
}
