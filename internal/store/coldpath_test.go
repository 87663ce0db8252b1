package store_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestCorruptBlockIsAnErrorNotAVerdict flips one payload byte of a sealed
// block after Open. Reads of a trace in that block must fail naming the
// segment and block — sys.Check used to evaluate the controls over an
// empty trace instead — the error-less reads must count what they drop,
// and a trace in an intact block must still read.
func TestCorruptBlockIsAnErrorNotAVerdict(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 9, Traces: 60, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	apps := sys.Store.AppIDs()
	sort.Strings(apps)
	if err := sys.Store.DemoteTraces(apps...); err != nil {
		t.Fatal(err)
	}
	segs := sys.Store.Segments()
	if len(segs) != 1 || segs[0].Blocks < 2 {
		t.Fatalf("segments = %+v, want one with several blocks", segs)
	}
	// Traces are sealed in ID order: the first is in block 0, whose payload
	// follows the 8-byte magic and the 8-byte frame header; the last is in
	// the last block.
	damaged, intact := apps[0], apps[len(apps)-1]
	f, err := os.OpenFile(segs[0].Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 16+100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x04
	if _, err := f.WriteAt(b[:], 16+100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	names := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), segs[0].Path) && strings.Contains(err.Error(), "block 0")
	}
	if out, err := sys.Check(damaged); !names(err) {
		t.Fatalf("Check(%s) over a corrupt block = %d outcomes, err %v", damaged, len(out), err)
	}
	called := false
	err = sys.Store.ViewTrace(damaged, func(*provenance.Graph, uint64) error { called = true; return nil })
	if !names(err) || called {
		t.Fatalf("ViewTrace(%s) over a corrupt block: err %v, fn called %v", damaged, err, called)
	}
	before := sys.Store.Tiering().ReadErrors
	if before < 2 {
		t.Fatalf("ReadErrors = %d after two failed reads", before)
	}
	if rows := sys.Store.RowsForApp(damaged); rows != nil {
		t.Fatalf("RowsForApp over a corrupt block returned %d rows", len(rows))
	}
	if got := sys.Store.Tiering().ReadErrors; got != before+1 {
		t.Fatalf("ReadErrors = %d after RowsForApp dropped a read error, was %d", got, before)
	}

	out, err := sys.Check(intact)
	if err != nil || len(out) == 0 {
		t.Fatalf("Check(%s) in an intact block = %d outcomes, err %v", intact, len(out), err)
	}
	if rows := sys.Store.RowsForApp(intact); len(rows) == 0 {
		t.Fatalf("RowsForApp(%s) in an intact block is empty", intact)
	}
}

// TestCacheChargeTracksHeap materializes every trace of a sealed hiring
// image through a cache big enough to keep them all, and holds the
// cache's charge for each to the heap it really grew by — per trace, to
// within 25 %.
func TestCacheChargeTracksHeap(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sys, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := d.Simulate(workload.SimOptions{Seed: 5, Traces: 300, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	apps := sys.Store.AppIDs()
	if err := sys.Store.DemoteTraces(apps...); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(store.Options{Dir: dir, SkipValidation: true, SegmentCacheBytes: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	used0 := s.Tiering().Cache.UsedBytes
	for _, app := range apps {
		if err := s.ViewTrace(app, func(*provenance.Graph, uint64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	n := float64(len(apps))
	heap := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	charge := float64(s.Tiering().Cache.UsedBytes-used0) / n
	t.Logf("heap %.0f B per trace, charged %.0f B", heap, charge)
	if charge < 0.75*heap || charge > 1.25*heap {
		t.Errorf("the cache charges %.0f B per materialized trace, the heap grew by %.0f B", charge, heap)
	}
}

// TestParentBlockSizeSegmentsRead seals one hiring image twice: in 64 KiB
// blocks, the target segments were sealed at before it became 16 KiB, and
// at the default. Readers take every block's length from the block table,
// so both images must read the same — byte-identical rows, the same
// records through ViewTrace, the same verdicts — and both must take a
// late event to a sealed trace (promote-on-write) after a reopen.
func TestParentBlockSizeSegmentsRead(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	res := d.Simulate(workload.SimOptions{Seed: 13, Traces: 120, ViolationRate: 0.3, Visibility: 1.0})
	// The last event of the first trace arrives after the trace is sealed.
	lateAt := -1
	for i, ev := range res.Events {
		if ev.AppID == res.Events[0].AppID {
			lateAt = i
		}
	}
	late := res.Events[lateAt]
	early := append(append([]events.AppEvent(nil), res.Events[:lateAt]...), res.Events[lateAt+1:]...)

	type image struct {
		blocks int
		rows   map[string][]store.Row
		view   map[string][]string
		checks map[string][]string
	}
	read := func(sys *core.System, apps []string) image {
		im := image{rows: map[string][]store.Row{}, view: map[string][]string{}, checks: map[string][]string{}}
		for _, app := range apps {
			if im.rows[app] = sys.Store.RowsForApp(app); len(im.rows[app]) == 0 {
				t.Fatalf("no rows for %s", app)
			}
			err := sys.Store.ViewTrace(app, func(g *provenance.Graph, ver uint64) error {
				im.view[app] = append(im.view[app], fmt.Sprint("version ", ver))
				for _, n := range g.Nodes(provenance.NodeFilter{AppID: app}) {
					im.view[app] = append(im.view[app], "node "+n.ID+" "+n.Type)
				}
				for _, e := range g.AllEdges(provenance.EdgeFilter{AppID: app}) {
					im.view[app] = append(im.view[app], "edge "+e.ID+" "+e.Type+" "+e.Source+">"+e.Target)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(im.view[app])
			out, err := sys.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range out {
				r := o.Result
				im.checks[app] = append(im.checks[app], fmt.Sprintf("%s v%d at %d: %v %v %v", o.ControlID, o.Version, o.TraceVersion, r.Verdict, r.Bindings, r.Notes()))
			}
		}
		return im
	}
	seal := func(blockBytes int) (before, after image) {
		dir := t.TempDir()
		sys, err := core.New(d, core.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Ingest(early); err != nil {
			t.Fatal(err)
		}
		apps := sys.Store.AppIDs()
		sort.Strings(apps)
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(store.Options{Dir: dir, SkipValidation: true, SegmentBlockBytes: blockBytes})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DemoteTraces(apps...); err != nil {
			t.Fatal(err)
		}
		segs := s.Segments()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("sealed %d segments, want 1", len(segs))
		}
		sys, err = core.New(d, core.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if n := sys.Store.Tiering().ResidentTraces; n != 0 {
			t.Fatalf("%d traces resident after sealing them all", n)
		}
		before = read(sys, apps)
		before.blocks = segs[0].Blocks
		if err := sys.Ingest([]events.AppEvent{late}); err != nil {
			t.Fatal(err)
		}
		if ti := sys.Store.Tiering(); ti.PromotedTraces != 1 || ti.ResidentTraces != 1 {
			t.Fatalf("late event to sealed %s: %d promoted, %d resident", late.AppID, ti.PromotedTraces, ti.ResidentTraces)
		}
		after = read(sys, []string{late.AppID})
		if len(after.rows[late.AppID]) <= len(before.rows[late.AppID]) {
			t.Fatalf("late event to %s added no row: %d rows, %d before", late.AppID, len(after.rows[late.AppID]), len(before.rows[late.AppID]))
		}
		return before, after
	}
	parent, parentAfter := seal(64 << 10)
	now, nowAfter := seal(0)
	t.Logf("%d traces: %d blocks of 64 KiB, %d at the default target", len(now.rows), parent.blocks, now.blocks)
	if parent.blocks >= now.blocks {
		t.Fatalf("64 KiB target sealed %d blocks, the default %d: want fewer", parent.blocks, now.blocks)
	}
	parent.blocks, now.blocks = 0, 0
	if !reflect.DeepEqual(parent, now) {
		t.Fatal("a segment sealed in 64 KiB blocks reads differently from one sealed at the default target")
	}
	if !reflect.DeepEqual(parentAfter, nowAfter) {
		t.Fatal("promote-on-write out of a 64 KiB-block segment gives a different trace")
	}
}
