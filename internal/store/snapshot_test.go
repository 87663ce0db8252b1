package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provenance"
)

// stressNodeID names the i-th node of writer w. Zero-padding keeps the
// store's sorted-by-ID node order equal to insertion order, so a reader
// can assert "exact prefix" by position.
func stressNodeID(w, i int) string { return fmt.Sprintf("w%d-n%05d", w, i) }

// TestSnapshotIsolationStress is the -race gate for the MVCC read path:
// writers commit through the group-commit pipeline while readers assert
// that every snapshot they observe is an acknowledged commit prefix —
// never a torn batch, never a lost acked write, never a version moving
// backwards.
//
// Invariants checked inside every read transaction, per trace:
//
//   - len(Nodes(app)) == TraceVersion(app): the node set and the version
//     counter were published atomically.
//   - the node IDs are exactly stressNodeID(w, 0..v-1): the snapshot is a
//     prefix of the writer's commit order, with no holes.
//   - TraceVersion(app) >= the writer's acked count read before the load:
//     a write acknowledged to its writer is visible to every later read
//     (publish-before-ack).
//   - versions never decrease across one reader's successive loads.
//   - Seq() == sum of all trace versions: the whole snapshot sits on one
//     commit boundary; traces are never mixed across boundaries.
//   - TraceLastTouch(app) <= Seq(), and it equals the Seq of the newest
//     change-feed event for the trace at or below Seq(): the last-touch is
//     snapshot state, published with the version, never a newer value
//     paired with an older graph. (The feed is asynchronous, so views are
//     recorded and judged against it once it has drained.)
func TestSnapshotIsolationStress(t *testing.T) {
	const (
		writers       = 4
		nodesPerTrace = 250
		readers       = 4
	)
	s, err := Open(Options{Dir: t.TempDir(), Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	apps := make([]string, writers)
	for w := range apps {
		apps[w] = fmt.Sprintf("A%d", w)
	}
	var acked [writers]atomic.Uint64
	widx := map[string]int{}
	for w, app := range apps {
		widx[app] = w
	}
	sub := s.Subscribe()
	defer sub.Cancel()

	// touchView is one reader's observation of a trace's last-touch.
	type touchView struct {
		w          int
		seq, touch uint64
	}
	var (
		viewsMu sync.Mutex
		views   []touchView
	)

	var wwg sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < nodesPerTrace; i++ {
				n := mkReq(stressNodeID(w, i), apps[w], fmt.Sprintf("REQ-%d-%d", w, i))
				if err := s.PutNode(n); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w].Add(1)
			}
		}(w)
	}

	// checkView asserts the full invariant set against one consistent
	// view; lastSeen carries the reader's version floor between views.
	checkView := func(lastSeen []uint64) error {
		var ackedBefore [writers]uint64
		for w := range ackedBefore {
			ackedBefore[w] = acked[w].Load()
		}
		var seen []touchView
		defer func() {
			viewsMu.Lock()
			views = append(views, seen...)
			viewsMu.Unlock()
		}()
		return s.ReadTx(func(tx ReadTx) error {
			g := tx.Graph()
			var sum uint64
			for w := 0; w < writers; w++ {
				v := g.TraceVersion(apps[w])
				sum += v
				touch := g.TraceLastTouch(apps[w])
				if touch > tx.Seq() || (touch == 0) != (v == 0) {
					return fmt.Errorf("trace %s: last-touch %d at version %d in a snapshot at seq %d", apps[w], touch, v, tx.Seq())
				}
				seen = append(seen, touchView{w: w, seq: tx.Seq(), touch: touch})
				if v < ackedBefore[w] {
					return fmt.Errorf("trace %s: version %d < %d writes acked before the load", apps[w], v, ackedBefore[w])
				}
				if v < lastSeen[w] {
					return fmt.Errorf("trace %s: version went backwards %d -> %d", apps[w], lastSeen[w], v)
				}
				lastSeen[w] = v
				nodes := g.Nodes(provenance.NodeFilter{AppID: apps[w]})
				if uint64(len(nodes)) != v {
					return fmt.Errorf("trace %s: torn snapshot, %d nodes at version %d", apps[w], len(nodes), v)
				}
				for i, n := range nodes {
					if want := stressNodeID(w, i); n.ID != want {
						return fmt.Errorf("trace %s: position %d holds %s, want prefix node %s", apps[w], i, n.ID, want)
					}
				}
			}
			if tx.Seq() != sum {
				return fmt.Errorf("seq %d != sum of trace versions %d: snapshot off a commit boundary", tx.Seq(), sum)
			}
			return nil
		})
	}

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			lastSeen := make([]uint64, writers)
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				if err := checkView(lastSeen); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	wwg.Wait()
	close(writersDone)
	rwg.Wait()
	if t.Failed() {
		return
	}

	// Final state: every acked write present, on a commit boundary.
	if err := checkView(make([]uint64, writers)); err != nil {
		t.Fatalf("final view: %v", err)
	}
	// Judge every recorded last-touch against the drained change feed.
	var evSeqs [writers][]uint64 // per trace, ascending (commit order)
	for i := 0; i < writers*nodesPerTrace; i++ {
		ev := <-sub.C()
		w := widx[ev.AppID()]
		evSeqs[w] = append(evSeqs[w], ev.Seq)
	}
	for _, v := range views {
		var want uint64
		if i := sort.Search(len(evSeqs[v.w]), func(i int) bool { return evSeqs[v.w][i] > v.seq }); i > 0 {
			want = evSeqs[v.w][i-1]
		}
		if v.touch != want {
			t.Fatalf("trace %s: snapshot at seq %d carries last-touch %d, newest event at or below it is %d",
				apps[v.w], v.seq, v.touch, want)
		}
	}
	st := s.Stats()
	if want := uint64(writers * nodesPerTrace); st.Seq != want {
		t.Fatalf("final seq = %d, want %d", st.Seq, want)
	}
	if st.Snapshots.Publishes == 0 || st.Snapshots.ReaderLoads == 0 {
		t.Fatalf("snapshot counters look dead: %+v", st.Snapshots)
	}
}

// TestCompactRunsAgainstParkedSnapshotReaders pins that a reader holding
// a snapshot — even one parked inside View indefinitely — blocks neither
// writers nor Compact. Pre-D7, View held the state read lock for fn's
// whole duration, so a parked reader wedged every writer and compaction.
func TestCompactRunsAgainstParkedSnapshotReaders(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutNode(mkReq("req1", "A1", "R1")); err != nil {
		t.Fatal(err)
	}

	inside := make(chan struct{})
	release := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		readerDone <- s.View(func(g *provenance.Graph) error {
			close(inside)
			<-release
			// The parked snapshot still serves its point-in-time state
			// after the write and the compaction below.
			if g.Node("req1") == nil {
				return fmt.Errorf("parked snapshot lost req1")
			}
			if g.Node("req2") != nil {
				return fmt.Errorf("parked snapshot sees a write from after it was taken")
			}
			return nil
		})
	}()
	<-inside

	workDone := make(chan error, 1)
	go func() {
		if err := s.PutNode(mkReq("req2", "A2", "R2")); err != nil {
			workDone <- fmt.Errorf("write behind parked reader: %v", err)
			return
		}
		workDone <- s.Compact()
	}()
	select {
	case err := <-workDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write+Compact blocked behind a parked snapshot reader")
	}

	close(release)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	// Compaction preserved the state the parked reader coexisted with.
	if s.Node("req1") == nil || s.Node("req2") == nil {
		t.Fatal("records lost across compaction")
	}
}

// TestViewRetentionAfterWrites pins the D7 retention contract: the graph
// a View callback receives may be kept past the callback's return and
// keeps serving its point-in-time state while the store moves on.
func TestViewRetentionAfterWrites(t *testing.T) {
	s := memStore(t)
	if err := s.PutNode(mkReq("req1", "A1", "R1")); err != nil {
		t.Fatal(err)
	}

	var retained *provenance.Graph
	var retainedVer uint64
	if err := s.ViewTrace("A1", func(g *provenance.Graph, v uint64) error {
		retained, retainedVer = g, v
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !retained.Frozen() {
		t.Fatal("View handed out a non-frozen graph")
	}

	if err := s.PutNode(mkReq("req2", "A1", "R2")); err != nil {
		t.Fatal(err)
	}
	upd := mkReq("req1", "A1", "R1")
	upd.SetAttr("positionType", provenance.String("replacement"))
	if err := s.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}

	if retained.Node("req2") != nil {
		t.Error("retained snapshot sees a later write")
	}
	if got := retained.Node("req1").Attr("positionType"); !got.Equal(provenance.String("new")) {
		t.Errorf("retained snapshot sees a later update: positionType = %v", got)
	}
	if v := retained.TraceVersion("A1"); v != retainedVer {
		t.Errorf("retained snapshot's trace version moved %d -> %d", retainedVer, v)
	}
	if v := s.TraceVersion("A1"); v != retainedVer+2 {
		t.Errorf("store trace version = %d, want %d", v, retainedVer+2)
	}
}

// TestSnapshotCounters pins the MVCC observability counters surfaced
// through Stats: publishes and reader loads move with commits and reads,
// the copy counters only with cross-epoch writes.
func TestSnapshotCounters(t *testing.T) {
	s, err := Open(Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Write, read, write, read: the second write lands in a new
	// epoch (a snapshot of the trace's shard was consumed by the
	// read), so it must pay a copy-on-write shard clone.
	if err := s.PutNode(mkReq("req1", "A1", "R1")); err != nil {
		t.Fatal(err)
	}
	_ = s.Stats()
	if err := s.PutNode(mkReq("req2", "A1", "R2")); err != nil {
		t.Fatal(err)
	}
	ss := s.Stats().Snapshots

	if ss.Publishes < 2 {
		t.Errorf("Publishes = %d, want >= 2 (open + post-write refresh)", ss.Publishes)
	}
	if ss.ReaderLoads < 2 {
		t.Errorf("ReaderLoads = %d, want >= 2 (two Stats reads)", ss.ReaderLoads)
	}
	if ss.CopiedShards < 1 || ss.CopiedNodes < 1 {
		t.Errorf("copy-on-write counters flat after cross-epoch write: %+v", ss)
	}
	// Reads move ReaderLoads but never the copy counters.
	before := ss
	_ = s.Stats()
	after := s.Stats().Snapshots
	if after.ReaderLoads <= before.ReaderLoads {
		t.Errorf("ReaderLoads did not advance on read: %d -> %d", before.ReaderLoads, after.ReaderLoads)
	}
	if after.CopiedShards != before.CopiedShards || after.CopiedNodes != before.CopiedNodes || after.CopiedEdges != before.CopiedEdges {
		t.Errorf("read-only traffic changed copy counters: %+v -> %+v", before, after)
	}
}
