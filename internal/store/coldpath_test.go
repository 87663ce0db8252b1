package store_test

import (
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestSimulatorRowsTakeFastPath guards the gain FuzzDecodeRowAgrees cannot
// see: if DecodeRow's fast path silently declined everything the fuzz
// would still pass. Every row the three simulators produce — through the
// recorder specs, correlation and enrichment — must be read by ScanRow.
func TestSimulatorRowsTakeFastPath(t *testing.T) {
	for name, mk := range map[string]func() (*workload.Domain, error){
		"hiring": workload.Hiring, "claims": workload.Claims, "procurement": workload.Procurement,
	} {
		d, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(d, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res := d.Simulate(workload.SimOptions{Seed: 3, Traces: 40, ViolationRate: 0.5, Visibility: 1.0})
		if err := sys.Ingest(res.Events); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, app := range sys.Store.AppIDs() {
			for _, r := range sys.Store.RowsForApp(app) {
				rows++
				if _, _, ok := store.ScanRow(r); !ok {
					t.Errorf("%s: row falls back to encoding/xml: %s", name, r.XML)
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: the simulator produced no rows", name)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

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
// within 25 % — for both segment formats.
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
	for _, format := range []int{2, 1} {
		if format == 1 {
			store.RewriteSegmentsAsFormat1(t, dir)
		}
		s, err := store.Open(store.Options{Dir: dir, SkipValidation: true, SegmentCacheBytes: 512 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Segments()[0].Format; got != format {
			t.Fatalf("segment format = %d, want %d", got, format)
		}
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
		t.Logf("format %d: heap %.0f B per trace, charged %.0f B", format, heap, charge)
		if charge < 0.75*heap || charge > 1.25*heap {
			t.Errorf("format %d: the cache charges %.0f B per materialized trace, the heap grew by %.0f B", format, charge, heap)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
