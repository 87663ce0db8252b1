package store_test

// The golden fixture in testdata/golden is a small durable data dir — the
// main log and one segment — written once by a build whose codec sorted a
// record's attribute names itself. These tests pin that the on-disk format
// did not move: this build reads the fixture back to the same rows,
// records and verdicts, and writes the same bytes from the same inputs.
// Regenerate (only on a deliberate format change) with
//
//	go test ./internal/store -run '^TestGoldenFixture' -update-golden
//
// testdata/golden-v2 is the same data dir as the last build that sealed
// format-2 (JSON footer) segments wrote it. It is read-only: it pins that
// this build still reads such a data dir back to the same report.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this build")

const (
	goldenDir   = "testdata/golden"
	goldenV2Dir = "testdata/golden-v2"
)

// goldenFiles are the data-dir files the fixture holds, relative to it.
var goldenFiles = []string{"provenance.log", filepath.Join("segments", "seg-00000001.seg")}

// Traces of the fixture: demoted stays sealed, promoted is sealed and
// then written to, resident is never demoted.
const (
	goldenDemoted  = "hiring-000000"
	goldenPromoted = "hiring-000001"
	goldenResident = "hiring-000002"
)

// buildGolden writes the fixture's data dir into dir: three simulated
// hiring traces (every value kind), one relation carrying an attribute of
// every kind, two traces sealed into one segment and a late event that
// promotes one of them back.
func buildGolden(t *testing.T, dir string) {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 3, Traces: 3, ViolationRate: 0.5, Visibility: 1.0})
	late := -1
	for i, ev := range res.Events {
		if ev.AppID == goldenPromoted {
			late = i
		}
	}
	if late < 0 {
		t.Fatalf("no event for %s", goldenPromoted)
	}
	early := append(append([]events.AppEvent(nil), res.Events[:late]...), res.Events[late+1:]...)
	if err := sys.Ingest(early); err != nil {
		t.Fatal(err)
	}
	var ids []string
	if err := sys.Store.ViewTrace(goldenDemoted, func(g *provenance.Graph, _ uint64) error {
		for _, n := range g.Nodes(provenance.NodeFilter{AppID: goldenDemoted}) {
			ids = append(ids, n.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if len(ids) < 2 {
		t.Fatalf("%s has %d nodes", goldenDemoted, len(ids))
	}
	if err := sys.Store.PutEdge(&provenance.Edge{
		ID: goldenDemoted + "-kinds", Type: "nextTask", AppID: goldenDemoted,
		Source: ids[0], Target: ids[1],
		Timestamp: time.Date(2011, 4, 11, 9, 30, 0, 250, time.UTC),
		Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"big":   provenance.Int(1<<53 + 1),
			"neg":   provenance.Int(-42),
			"ratio": provenance.Float(0.1),
			"zero":  provenance.Float(math.Copysign(0, -1)),
			"nan":   provenance.Float(math.NaN()),
			"ok":    provenance.Bool(true),
			"at":    provenance.Time(time.Date(2011, 4, 12, 17, 5, 9, 123456789, time.FixedZone("x", 3600))),
			"note":  provenance.String(`a<b & "c"`),
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store.DemoteTraces(goldenDemoted, goldenPromoted); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(res.Events[late : late+1]); err != nil {
		t.Fatal(err)
	}
	if ts := sys.Store.Tiering(); ts.PromotedTraces != 1 || ts.SegmentBackedTraces != 1 || ts.ResidentTraces != 2 {
		t.Fatalf("tiering after the late event = %+v, want one segment-backed promotion", ts)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenReport renders what a build reads back from dir: every trace's
// Table-1 rows, the records ViewTrace hands out, and the verdicts Check
// gives.
func goldenReport(t *testing.T, dir string) string {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var b strings.Builder
	apps := sys.Store.AppIDs()
	if want := []string{goldenDemoted, goldenPromoted, goldenResident}; fmt.Sprint(apps) != fmt.Sprint(want) {
		t.Fatalf("AppIDs = %v, want %v", apps, want)
	}
	for _, app := range apps {
		fmt.Fprintf(&b, "== %s\n-- rows\n", app)
		for _, r := range sys.Store.RowsForApp(app) {
			fmt.Fprintf(&b, "%s %s %s %s\n", r.ID, r.Class, r.AppID, r.XML)
		}
		b.WriteString("-- records\n")
		if err := sys.Store.ViewTrace(app, func(g *provenance.Graph, ver uint64) error {
			fmt.Fprintf(&b, "version %d\n", ver)
			nodes := g.Nodes(provenance.NodeFilter{AppID: app})
			sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
			for _, n := range nodes {
				r, err := store.EncodeNode(n)
				if err != nil {
					return err
				}
				fmt.Fprintf(&b, "%s | %s\n", n, r.XML)
			}
			edges := g.AllEdges(provenance.EdgeFilter{AppID: app})
			sort.Slice(edges, func(i, j int) bool { return edges[i].ID < edges[j].ID })
			for _, e := range edges {
				r, err := store.EncodeEdge(e)
				if err != nil {
					return err
				}
				fmt.Fprintf(&b, "%s | %s\n", e, r.XML)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		b.WriteString("-- verdicts\n")
		out, err := sys.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range out {
			fmt.Fprintf(&b, "%s v%d %v bindings=%v notes=%q alerts=%q\n",
				o.ControlID, o.Version, o.Result.Verdict, o.Result.Bindings, o.Result.Notes(), o.Result.Alerts)
		}
	}
	return b.String()
}

// copyGolden copies a fixture's data files into a fresh dir, so a test
// never opens (and possibly appends to) testdata itself.
func copyGolden(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range goldenFiles {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGoldenFixtureWrites: the fixture's inputs write byte-identical log
// and segment files.
func TestGoldenFixtureWrites(t *testing.T) {
	dir := t.TempDir()
	buildGolden(t, dir)
	if *updateGolden {
		for _, name := range goldenFiles {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(goldenDir, name)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("segments dir holds %d files, want 1", len(entries))
	}
	for _, name := range goldenFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes that differ from the fixture's %d", name, len(got), len(want))
		}
	}
}

// TestGoldenFixtureReads: opening the fixture gives the rows, records and
// verdicts the build that wrote it read back.
func TestGoldenFixtureReads(t *testing.T) {
	got := goldenReport(t, copyGolden(t, goldenDir))
	path := filepath.Join(goldenDir, "report.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fixture reads back differently:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenFixtureReadsFormat2: the format-2 fixture, whose segment has a
// JSON footer, reads back to the report the current fixture reads back to.
func TestGoldenFixtureReadsFormat2(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join(goldenV2Dir, goldenFiles[1]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(seg, []byte(`{"format":2,`)) {
		t.Fatal("the format-2 fixture's segment has no format-2 JSON footer")
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenReport(t, copyGolden(t, goldenV2Dir)); got != string(want) {
		t.Errorf("format-2 fixture reads back differently:\n got:\n%s\nwant:\n%s", got, want)
	}
}
