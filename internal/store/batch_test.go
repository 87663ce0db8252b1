package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/provenance"
)

// TestCommitNodesCommitsRunAsOneUnit: a node-only Commit lands in the store as
// one commit unit — every node recorded, visible together, and (on the
// group-commit path) counted as a single commit batch.
func TestCommitNodesCommitsRunAsOneUnit(t *testing.T) {
	for _, mode := range []string{"memory", "disk", "disk-sync"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{Model: testModel(t)}
			switch mode {
			case "disk":
				opts.Dir = t.TempDir()
			case "disk-sync":
				opts.Dir = t.TempDir()
				opts.Sync = true
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := s.Durability()
			ns := make([]*provenance.Node, 40)
			for i := range ns {
				ns[i] = mkReq(fmt.Sprintf("r%02d", i), fmt.Sprintf("A%d", i%4), fmt.Sprintf("REQ%02d", i))
			}
			for i, err := range s.Commit(Batch{Nodes: ns}).Nodes {
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
			}
			if got := s.Stats().Nodes; got != len(ns) {
				t.Fatalf("nodes = %d, want %d", got, len(ns))
			}
			for _, n := range ns {
				if s.Node(n.ID) == nil {
					t.Fatalf("node %s not visible", n.ID)
				}
			}
			after := s.Durability()
			if mode == "disk-sync" {
				// The run shares fsyncs: far fewer than one per record.
				if syncs := after.Fsyncs - before.Fsyncs; syncs == 0 || syncs >= uint64(len(ns)) {
					t.Fatalf("fsyncs = %d for %d records", syncs, len(ns))
				}
			}
			if mode != "memory" {
				if after.CommitBatches == before.CommitBatches {
					t.Fatal("no commit batch recorded")
				}
				if after.MaxCommitBatch < uint64(len(ns)) {
					t.Fatalf("MaxCommitBatch = %d, want >= %d", after.MaxCommitBatch, len(ns))
				}
			}
		})
	}
}

// TestCommitNodesPerEntryErrors: invalid and duplicate nodes fail alone; the
// rest of the run stays recorded, and duplicate rejections carry the
// provenance.ErrDuplicate sentinel at-least-once deliverers match on.
func TestCommitNodesPerEntryErrors(t *testing.T) {
	s := memStore(t)
	if err := s.PutNode(mkReq("dup", "A", "REQ0")); err != nil {
		t.Fatal(err)
	}
	ns := []*provenance.Node{
		mkReq("ok1", "A", "REQ1"),
		mkReq("dup", "A", "REQ0"), // duplicate ID
		{ID: "bad", Class: provenance.ClassData, Type: "ghost", AppID: "A"}, // undeclared type
		mkReq("ok2", "B", "REQ2"),
	}
	errs := s.Commit(Batch{Nodes: ns}).Nodes
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid nodes failed: %v / %v", errs[0], errs[3])
	}
	if !errors.Is(errs[1], provenance.ErrDuplicate) {
		t.Fatalf("duplicate error = %v, want ErrDuplicate", errs[1])
	}
	if errs[2] == nil {
		t.Fatal("undeclared type accepted")
	}
	if s.Node("ok1") == nil || s.Node("ok2") == nil {
		t.Fatal("valid run members not recorded")
	}
}

// TestCommitNodesChangeFeed: one run emits one change-feed event per recorded
// node, after the covering snapshot is published.
func TestCommitNodesChangeFeed(t *testing.T) {
	s := memStore(t)
	sub := s.Subscribe()
	defer sub.Cancel()
	ns := []*provenance.Node{mkReq("r1", "A", "R1"), mkReq("r2", "A", "R2"), mkReq("r3", "B", "R3")}
	for i, err := range s.Commit(Batch{Nodes: ns}).Nodes {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i := range ns {
		ev, ok := <-sub.C()
		if !ok {
			t.Fatalf("feed closed after %d events", i)
		}
		if ev.Kind != EventNode || ev.Node.ID != ns[i].ID {
			t.Fatalf("event %d = %+v, want node %s", i, ev, ns[i].ID)
		}
	}
}

// TestCommitNodesClosedStore: a run against a closed store fails every entry.
func TestCommitNodesClosedStore(t *testing.T) {
	s, err := Open(Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	errs := s.Commit(Batch{Nodes: []*provenance.Node{mkReq("r1", "A", "R1"), mkReq("r2", "A", "R2")}}).Nodes
	for i, err := range errs {
		if err == nil {
			t.Fatalf("entry %d accepted after close", i)
		}
	}
}

// TestCommitNodesRecoveredAfterReplay: a batch-committed run survives reopen
// exactly like per-record commits do.
func TestCommitNodesRecoveredAfterReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Model: testModel(t), Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]*provenance.Node, 10)
	for i := range ns {
		ns[i] = mkReq(fmt.Sprintf("r%d", i), "A", fmt.Sprintf("REQ%d", i))
	}
	for i, err := range s.Commit(Batch{Nodes: ns}).Nodes {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Model: testModel(t), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().Nodes; got != len(ns) {
		t.Fatalf("recovered %d nodes, want %d", got, len(ns))
	}
}

// TestCommitMixedBatch: nodes, an edge between two of them, and an update
// of one of them are one commit unit — one fsync, one feed burst in the
// order nodes, edges, updates — and each record stands or falls alone.
func TestCommitMixedBatch(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Model: testModel(t), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub := s.Subscribe()
	defer sub.Cancel()
	person := &provenance.Node{ID: "p1", Class: provenance.ClassResource, Type: "person", AppID: "A",
		Attrs: map[string]provenance.Value{"name": provenance.String("Ann")}}
	req := mkReq("r1", "A", "R1")
	enriched := req.Clone()
	enriched.SetAttr("positionType", provenance.String("new"))
	before := s.Durability()
	res := s.Commit(Batch{
		Nodes: []*provenance.Node{person, req, mkReq("", "A", "bad")},
		Edges: []*provenance.Edge{
			{ID: "e1", Type: "submitterOf", AppID: "A", Source: "p1", Target: "r1"},
			{ID: "e2", Type: "submitterOf", AppID: "A", Source: "r1", Target: "p1"}, // endpoint types swapped
			{ID: "e3", Type: "submitterOf", AppID: "A", Source: "p1", Target: "ghost"},
		},
		Updates: []*provenance.Node{enriched, mkReq("ghost", "A", "R9")},
	})
	for name, errs := range map[string][]error{"nodes": res.Nodes, "edges": res.Edges, "updates": res.Updates} {
		want := map[string][]bool{"nodes": {true, true, false}, "edges": {true, false, false}, "updates": {true, false}}[name]
		for i, err := range errs {
			if (err == nil) != want[i] {
				t.Errorf("%s[%d]: err = %v, want success %v", name, i, err, want[i])
			}
		}
	}
	after := s.Durability()
	if after.Fsyncs-before.Fsyncs != 1 || after.CommitBatches-before.CommitBatches != 1 {
		t.Fatalf("mixed batch took %d fsyncs in %d commit batches, want 1 in 1",
			after.Fsyncs-before.Fsyncs, after.CommitBatches-before.CommitBatches)
	}
	var kinds []EventKind
	for i := 0; i < 4; i++ {
		kinds = append(kinds, (<-sub.C()).Kind)
	}
	if fmt.Sprint(kinds) != fmt.Sprint([]EventKind{EventNode, EventNode, EventEdge, EventNodeUpdate}) {
		t.Fatalf("feed order = %v", kinds)
	}
	if got := s.Node("r1").Attr("positionType").Str(); got != "new" {
		t.Fatalf("update in the batch of its own node lost: %q", got)
	}
	if !hasEdge(s, "p1", "submitterOf", "r1") || s.Stats().Edges != 1 {
		t.Fatalf("edges = %d", s.Stats().Edges)
	}
}

func hasEdge(s *Store, src, typ, dst string) (ok bool) {
	_ = s.View(func(g *provenance.Graph) error { // the closure cannot fail
		ok = g.HasEdge(src, typ, dst)
		return nil
	})
	return ok
}

// TestFailedPromotionFailsItsRequestAlone: a request whose promotion cannot
// be staged — its sealed trace sits in a bit-flipped block — fails as a
// whole and leaves no bytes in the log, so none of its records reappears
// after a later commit and a reopen; and a healthy request grouped into
// the same fsync commits anyway.
func TestFailedPromotionFailsItsRequestAlone(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "A", 3)
	seedTrace(t, s, "H", 1)
	seedTrace(t, s, "K", 1)
	if err := s.DemoteTraces("A"); err != nil {
		t.Fatal(err)
	}
	segPath := s.Segments()[0].Path
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[16+40] ^= 0x10 // inside block 0's payload, which holds A
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := &hookFS{}
	s = tierStore(t, dir, func(o *Options) { o.FS = fsys; o.Sync = true })

	// One request: a node on hot H, then one on sealed A. Both fail.
	res := s.Commit(Batch{Nodes: []*provenance.Node{mkReq("r-H-rej", "H", "REQ-H-REJ"), mkReq("r-A-rej", "A", "REQ-A-REJ")}})
	if res.Nodes[0] == nil || res.Nodes[1] == nil {
		t.Fatalf("request with an unreadable promotion = %v, want both records rejected", res.Nodes)
	}
	if s.Node("r-H-rej") != nil {
		t.Fatal("the rejected request's record on H is live")
	}

	// Two requests in one group commit: the committer is held inside the
	// fsync of a third until both are queued, and collect then drains the
	// queue into one batch.
	released := false
	var bad, good BatchErrors
	var wg sync.WaitGroup
	fsys.hook = func(op fsOp) {
		if op.kind != "sync" || op.path != logPath(dir) || released {
			return
		}
		released = true
		wg.Add(2)
		go func() {
			defer wg.Done()
			bad = s.Commit(Batch{Nodes: []*provenance.Node{mkReq("r-A-rej2", "A", "REQ-A-REJ2")}})
		}()
		go func() {
			defer wg.Done()
			good = s.Commit(Batch{Nodes: []*provenance.Node{mkReq("r-K-ok", "K", "REQ-K-OK")}})
		}()
		deadline := time.Now().Add(10 * time.Second)
		for len(s.comm.reqs) < 2 {
			if time.Now().After(deadline) {
				t.Error("the two requests never queued behind the held fsync")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := s.PutNode(mkReq("r-H-ok", "H", "REQ-H-OK")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	fsys.hook = nil
	if bad.Nodes[0] == nil {
		t.Fatal("a promotion out of a corrupt block committed")
	}
	if good.Nodes[0] != nil {
		t.Fatalf("a healthy request failed with the request grouped beside it: %v", good.Nodes[0])
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = tierStore(t, dir, nil)
	for id, want := range map[string]bool{"r-H-rej": false, "r-A-rej": false, "r-A-rej2": false, "r-H-ok": true, "r-K-ok": true} {
		if got := s.Node(id) != nil; got != want {
			t.Errorf("after reopen %s present = %v, want %v", id, got, want)
		}
	}
	for _, e := range logEntries(t, dir) {
		if e.op == opPromote || e.app == "A" {
			t.Errorf("a failed request left %+v in the log", e)
		}
	}
}
