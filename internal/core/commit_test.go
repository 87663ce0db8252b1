package core_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/store/faultfs"
	"repro/internal/workload"
)

// traceEvents groups a simulation's events by trace, delivery order kept.
func traceEvents(res *workload.SimResult) (apps []string, byApp map[string][]events.AppEvent) {
	byApp = map[string][]events.AppEvent{}
	for _, ev := range res.Events {
		if byApp[ev.AppID] == nil {
			apps = append(apps, ev.AppID)
		}
		byApp[ev.AppID] = append(byApp[ev.AppID], ev)
	}
	return apps, byApp
}

// TestIngestBatchIsOneCommit: on a Sync store, a batch of N events that
// causes M derived edges and U enrichment updates is ONE group commit and
// ONE fsync covering all N+M+U records — through System.Ingest and through
// the gateway alike. Each trace's opening events (up to the submission
// task) are stored bare first, so the measured batch has a stored node to
// update; an enrichment of a node the batch itself inserts rides inside
// the insert and is checked on the node.
func TestIngestBatchIsOneCommit(t *testing.T) {
	d := hiring(t)
	res := d.Simulate(workload.SimOptions{Seed: 21, Traces: 4, ViolationRate: 0, Visibility: 1.0})
	apps, byApp := traceEvents(res)
	sys, err := core.New(d, core.Config{Dir: t.TempDir(), Sync: true, IngestShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	bare, err := events.NewPipeline(sys.Store, nil, d.Mappings...)
	if err != nil {
		t.Fatal(err)
	}

	doors := map[string]func(evs []events.AppEvent) error{
		"sync": sys.Ingest,
		"gateway": func(evs []events.AppEvent) error {
			if _, err := sys.Gateway.Offer(evs[0].AppID, evs); err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return sys.Gateway.WaitIdle(ctx)
		},
	}
	for door, ingest := range doors {
		for _, stored := range []bool{true, false} {
			evs := byApp[apps[0]]
			apps = apps[1:]
			if stored {
				cut := 0
				for evs[cut].Type != "task.submit" {
					cut++
				}
				if err := bare.IngestAll(evs[:cut+1]); err != nil {
					t.Fatal(err)
				}
				evs = evs[cut+1:]
			}
			dur, st, cs := sys.Store.Durability(), sys.Store.Stats(), sys.Correlator.Stats()
			if err := ingest(evs); err != nil {
				t.Fatalf("%s: %v", door, err)
			}
			dur2, st2, cs2 := sys.Store.Durability(), sys.Store.Stats(), sys.Correlator.Stats()
			edges, updates := cs2.EdgesDerived-cs.EdgesDerived, cs2.AttrsEnriched-cs.AttrsEnriched
			if edges == 0 || (updates == 1) != stored {
				t.Fatalf("%s: batch derived %d edges and %d updates (submission stored before: %v)", door, edges, updates, stored)
			}
			if got := dur2.Fsyncs - dur.Fsyncs; got != 1 {
				t.Errorf("%s: %d events + %d edges + %d updates took %d fsyncs, want 1", door, len(evs), edges, updates, got)
			}
			if got := dur2.CommitBatches - dur.CommitBatches; got != 1 {
				t.Errorf("%s: %d commit batches, want 1", door, got)
			}
			if got, want := st2.Seq-st.Seq, uint64(len(evs)+edges+updates); got != want {
				t.Errorf("%s: sequence advanced by %d, want %d (events + edges + updates)", door, got, want)
			}
			task := sys.Store.Node(evs[0].AppID + "-t-submit")
			if task == nil || task.Attr("durationSeconds").IsZero() {
				t.Errorf("%s: submission not enriched: %v", door, task)
			}
		}
	}
}

// TestIngestCrashRecovery kills the machine at every mutating filesystem
// operation of a multi-batch ingest and reopens: every acknowledged event
// must be there, and deriving over the recovered graph must come up with
// nothing between acknowledged nodes — an acknowledged node is never
// recovered without the edges and enrichment its batch committed with it.
func TestIngestCrashRecovery(t *testing.T) {
	d := hiring(t)
	res := d.Simulate(workload.SimOptions{Seed: 9, Traces: 3, ViolationRate: 0.4, Visibility: 1.0})
	var batches [][]events.AppEvent // 3 events at a time, traces interleaved by the split
	for off := 0; off < len(res.Events); off += 3 {
		batches = append(batches, res.Events[off:min(off+3, len(res.Events))])
	}
	// run ingests until the first failure and returns the acknowledged
	// record IDs.
	run := func(dir string, fs *faultfs.FS) map[string]bool {
		acked := map[string]bool{}
		sys, err := core.New(d, core.Config{Dir: dir, Sync: true, DisableAsyncIngest: true, FS: fs})
		if err != nil {
			return acked // crashed while opening: nothing acknowledged
		}
		defer sys.Close()
		for _, b := range batches {
			if err := sys.Ingest(b); err != nil {
				break
			}
			for _, ev := range b {
				acked[ev.Payload["recordId"]] = true
			}
		}
		return acked
	}
	count := faultfs.New(nil)
	if got := len(run(t.TempDir(), count)); got != len(res.Events) {
		t.Fatalf("fault-free run acknowledged %d of %d events", got, len(res.Events))
	}
	t.Logf("fault points: %d, batches: %d", count.Ops(), len(batches))
	for k := 1; k <= count.Ops(); k++ {
		dir := t.TempDir()
		acked := run(dir, faultfs.New(faultfs.CrashAt(k)))
		sys, err := core.New(d, core.Config{Dir: dir, DisableAsyncIngest: true})
		if err != nil {
			t.Fatalf("crash at op %d: reopen: %v", k, err)
		}
		for id := range acked {
			if sys.Store.Node(id) == nil {
				t.Errorf("crash at op %d: acknowledged %s lost", k, id)
			}
		}
		for _, app := range sys.Store.AppIDs() {
			err := sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
				missing, err := sys.Correlator.Derive(g, app)
				for _, e := range missing.Edges {
					if acked[e.Source] && acked[e.Target] {
						t.Errorf("crash at op %d: acknowledged %s and %s recovered without their %s edge",
							k, e.Source, e.Target, e.Type)
					}
				}
				for _, n := range missing.Updates {
					if acked[n.ID] {
						t.Errorf("crash at op %d: acknowledged %s recovered without its enrichment", k, n.ID)
					}
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		sys.Close()
	}
}

// TestLegacyEdgeIDsAcrossReopen: a log written when derived edges were
// named by a counter ("cr-<rule>-<n>") reopens, takes one more event, and
// ends with every (type, source, target) exactly once — the legacy edges
// count as present, the new ones get edge-derived IDs, nothing collides.
func TestLegacyEdgeIDsAcrossReopen(t *testing.T) {
	d := hiring(t)
	res := d.Simulate(workload.SimOptions{Seed: 4, Traces: 1, ViolationRate: 0, Visibility: 1.0})
	app := res.Events[0].AppID
	last := len(res.Events) - 1
	dir := t.TempDir()

	old, err := core.New(d, core.Config{Dir: dir, DisableAsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := events.NewPipeline(old.Store, nil, d.Mappings...)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.IngestAll(res.Events[:last]); err != nil {
		t.Fatal(err)
	}
	legacy := 0
	err = old.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
		derived, err := old.Correlator.Derive(g, app)
		for _, e := range derived.Edges {
			legacy++
			e.ID = e.ID[:strings.LastIndex(e.ID, "-")+1] + strconv.Itoa(legacy)
			if err := old.Store.PutEdge(e); err != nil {
				return err
			}
		}
		return err
	})
	if err != nil || legacy == 0 {
		t.Fatalf("seeding %d legacy edges: %v", legacy, err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err := core.New(d, core.Config{Dir: dir, DisableAsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Ingest(res.Events[last:]); err != nil {
		t.Fatal(err)
	}
	ref, err := core.New(d, core.Config{DisableAsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	triples := func(sys *core.System) map[string]int {
		seen := map[string]int{}
		_ = sys.Store.View(func(g *provenance.Graph) error { // the closure cannot fail
			for _, e := range g.AllEdges(provenance.EdgeFilter{AppID: app}) {
				seen[e.Type+" "+e.Source+" -> "+e.Target]++
			}
			return nil
		})
		return seen
	}
	got, want := triples(sys), triples(ref)
	if len(got) != len(want) || len(got) <= legacy {
		t.Fatalf("%d distinct edges after reopen (%d legacy), reference has %d", len(got), legacy, len(want))
	}
	for tr, n := range got {
		if n != 1 || want[tr] != 1 {
			t.Errorf("edge %q: %d copies after reopen, %d in the reference", tr, n, want[tr])
		}
	}
	if cs := sys.Correlator.Stats(); cs.Errors != 0 {
		t.Fatalf("correlator counted %d rejected records", cs.Errors)
	}
}

// TestConcurrentIngestSameTrace: two callers ingesting the two ends of a
// relation at the same moment must still end with the relation — each
// derives against a trace that may lack the other's node, so derive and
// commit are ordered per trace. Run under -race in CI.
func TestConcurrentIngestSameTrace(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{DisableAsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 300; i++ {
		app := fmt.Sprintf("race-%d", i)
		ends := [][]events.AppEvent{
			{{Source: "lombardi", Type: "requisition.submitted", AppID: app,
				Payload: map[string]string{"recordId": app + "-req", "req": "REQ-" + app}}},
			{{Source: "mail", Type: "approval.recorded", AppID: app,
				Payload: map[string]string{"recordId": app + "-apprv", "req": "REQ-" + app, "approved": "true"}}},
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, evs := range ends {
			wg.Add(1)
			go func(evs []events.AppEvent) {
				defer wg.Done()
				<-start
				if err := sys.Ingest(evs); err != nil {
					t.Error(err)
				}
			}(evs)
		}
		close(start)
		wg.Wait()
		var linked bool
		_ = sys.Store.View(func(g *provenance.Graph) error { // the closure cannot fail
			linked = g.HasEdge(app+"-apprv", "approvalOf", app+"-req")
			return nil
		})
		if !linked {
			t.Fatalf("%s: approval and requisition ingested concurrently, approvalOf never derived", app)
		}
	}
}

// TestMaterializeAcrossRestart: the Fig-2 checks edges are named after
// what they link, so a reopened store materializes further control points
// without colliding with the edge IDs of the previous session (they were
// counter-allocated, and the counter restarted at 1).
func TestMaterializeAcrossRestart(t *testing.T) {
	d := hiring(t)
	dir := t.TempDir()
	res := d.Simulate(workload.SimOptions{Seed: 1, Traces: 2, ViolationRate: 0, Visibility: 1.0})
	half := len(res.Events) / 2
	for _, evs := range [][]events.AppEvent{res.Events[:half], res.Events[half:]} {
		sys, err := core.New(d, core.Config{Dir: dir, Materialize: true, DisableAsyncIngest: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.CheckAll(); err != nil {
			t.Fatalf("materializing after %d events: %v", len(evs), err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
