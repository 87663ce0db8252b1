package store

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/provenance"
)

// TestConcurrentReadersAndWriters hammers a store with parallel writers,
// readers, an index prober and a subscriber, relying on the race detector
// for soundness and on the final census for completeness.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers = 4
	const perWriter = 250
	sub := s.Subscribe()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-n%d", w, i)
				if err := s.PutNode(mkReq(id, fmt.Sprintf("A%d", w), fmt.Sprintf("REQ-%s", id))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Readers run concurrently with the writers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Stats()
				_ = s.AppIDs()
				_ = s.Node(fmt.Sprintf("w0-n%d", i%perWriter))
				_, _ = s.LookupByAttr("jobRequisition", "reqID",
					provenance.String(fmt.Sprintf("REQ-w1-n%d", i%perWriter)))
				if err := s.View(func(g *provenance.Graph) error {
					g.Nodes(provenance.NodeFilter{AppID: "A2"})
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := s.Stats().Nodes; got != writers*perWriter {
		t.Fatalf("nodes = %d, want %d", got, writers*perWriter)
	}
	// The subscriber received every commit exactly once, in order.
	sub.Cancel()
	var count int
	var lastSeq uint64
	for ev := range sub.C() {
		if ev.Seq <= lastSeq {
			t.Fatalf("event order violated: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		count++
	}
	if count != writers*perWriter {
		t.Fatalf("subscriber saw %d events, want %d", count, writers*perWriter)
	}
}

// TestConcurrentCompaction compacts while writers are active; the store
// must lose nothing.
func TestConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := s.PutNode(mkReq(fmt.Sprintf("n%d", i), "A", fmt.Sprintf("R%d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Nodes; got != n {
		t.Fatalf("recovered %d nodes, want %d", got, n)
	}
}

// midCompactFS runs hook the first time the compaction scratch log is
// opened — phase 2, when Compact holds no store lock.
type midCompactFS struct {
	OSFS
	tmp  string
	hook func()
}

func (f *midCompactFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if name == f.tmp && f.hook != nil {
		hook := f.hook
		f.hook = nil
		hook()
	}
	return f.OSFS.OpenFile(name, flag, perm)
}

// TestCompactWithDeferredPublishPending is the regression test for the
// Compact self-deadlock: a commit lands between the compaction's freeze
// and its fold with no reader since the last publish, so the snapshot
// publication is deferred, and the compaction demotes nothing, so it does
// not publish itself. Its closing segment-GC pass must then not go through
// the read barrier, which takes the logMu that Compact still holds.
func TestCompactWithDeferredPublishPending(t *testing.T) {
	dir := t.TempDir()
	fsys := &midCompactFS{tmp: tmpLogPath(dir)}
	s, err := Open(Options{Dir: dir, Model: testModel(t), FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, s, "A", 3)
	fsys.hook = func() {
		if err := s.PutNode(mkReq("mid", "A", "R-mid")); err != nil {
			t.Errorf("commit during compaction: %v", err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Compact() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		// No Close: it would block on the same lock.
		t.Fatal("Compact deadlocked with a deferred snapshot publish pending")
	}
	if n := s.Node("mid"); n == nil {
		t.Fatal("commit made during the compaction is not readable")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
