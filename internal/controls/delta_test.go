package controls

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
)

// prefilteredControl binds only new-position requisitions through a
// hoisted equality prefilter, so writes that never match "new" in either
// image are provably unable to affect it.
const prefilteredControl = `
definitions
  set 'the request' to a job requisition where the position type of this is "new" ;
if
  the approval of 'the request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "new position lacks approval" ;
`

// positionControl reads only the requisition's own attribute — approval
// writes cannot affect it.
const positionControl = `
definitions
  set 'the request' to a job requisition ;
if
  the position type of 'the request' is "existing"
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`

// comparable projects an outcome slice onto the fields the delta cache
// freezes: per control, the verdict, alerts and bindings for the trace.
func comparable(out []*Outcome) []any {
	c := make([]any, 0, len(out))
	for _, o := range out {
		c = append(c, struct {
			ControlID string
			AppID     string
			Verdict   rules.Verdict
			Alerts    []string
			Bindings  map[string][]string
		}{o.ControlID, o.Result.AppID, o.Result.Verdict, o.Result.Alerts, o.Result.BindingMap()})
	}
	return c
}

// TestDeltaEquivalenceProperty is the delta-vs-full equivalence harness:
// a randomized commit sequence (inserts, updates, edges, a mid-stream
// redeploy) runs against two registries over the same store. The delta
// registry consumes each commit's write set through CheckDelta; the
// reference registry re-evaluates from scratch. After every checked
// commit the outcomes must be identical — a skip means the previously
// returned outcomes still hold exactly. Runs under -race in CI.
func TestDeltaEquivalenceProperty(t *testing.T) {
	f := newFixture(t, false)
	delta, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	deployBoth := func(id, text string) {
		t.Helper()
		if _, err := delta.Deploy(id, id, text); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Deploy(id, id, text); err != nil {
			t.Fatal(err)
		}
	}
	deployBoth("c-gm", gmControl)
	deployBoth("c-pref", prefilteredControl)
	deployBoth("c-pos", positionControl)

	sub := f.st.Subscribe()
	defer sub.Cancel()

	rng := rand.New(rand.NewSource(7))
	apps := []string{"A", "B", "C"}
	posTypes := []string{"new", "existing", "backfill"}

	// Per-trace bookkeeping: node IDs for update/edge ops, the pending
	// write set since the last delta check, and the last outcomes the
	// delta path returned (what an observer would still be holding when a
	// check skips).
	reqs := map[string][]string{}
	aps := map[string][]string{}   // approvals without an edge yet
	wired := map[string][]string{} // approvals already wired to a requisition
	pending := map[string]*store.WriteSet{}
	last := map[string][]*Outcome{}

	seq := 0
	mutate := func(app string) bool {
		switch op := rng.Intn(5); {
		case op == 0 || len(reqs[app]) == 0:
			seq++
			id := fmt.Sprintf("%s-req%d", app, seq)
			if err := f.st.PutNode(&provenance.Node{ID: id, Class: provenance.ClassData,
				Type: "jobRequisition", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
					"reqID":        provenance.String("REQ-" + id),
					"positionType": provenance.String(posTypes[rng.Intn(len(posTypes))]),
				})}); err != nil {
				t.Fatal(err)
			}
			reqs[app] = append(reqs[app], id)
		case op == 1:
			id := reqs[app][rng.Intn(len(reqs[app]))]
			if err := f.st.UpdateNode(&provenance.Node{ID: id, Class: provenance.ClassData,
				Type: "jobRequisition", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
					"reqID":        provenance.String("REQ-" + id),
					"positionType": provenance.String(posTypes[rng.Intn(len(posTypes))]),
				})}); err != nil {
				t.Fatal(err)
			}
		case op == 2:
			seq++
			id := fmt.Sprintf("%s-ap%d", app, seq)
			if err := f.st.PutNode(&provenance.Node{ID: id, Class: provenance.ClassData,
				Type: "approvalStatus", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
					"approved": provenance.Bool(rng.Intn(2) == 0)})}); err != nil {
				t.Fatal(err)
			}
			aps[app] = append(aps[app], id)
		case op == 3 && len(aps[app])+len(wired[app]) > 0:
			all := append(append([]string{}, aps[app]...), wired[app]...)
			id := all[rng.Intn(len(all))]
			if err := f.st.UpdateNode(&provenance.Node{ID: id, Class: provenance.ClassData,
				Type: "approvalStatus", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
					"approved": provenance.Bool(rng.Intn(2) == 0)})}); err != nil {
				t.Fatal(err)
			}
		case op == 4 && len(aps[app]) > 0:
			i := rng.Intn(len(aps[app]))
			ap := aps[app][i]
			req := reqs[app][rng.Intn(len(reqs[app]))]
			if err := f.st.PutEdge(&provenance.Edge{ID: "e-" + ap, Type: "approvalOf",
				AppID: app, Source: ap, Target: req}); err != nil {
				t.Fatal(err)
			}
			aps[app] = append(aps[app][:i], aps[app][i+1:]...)
			wired[app] = append(wired[app], ap)
		default:
			return false // op not applicable to this trace's state yet
		}
		return true
	}

	checkOne := func(app string) {
		t.Helper()
		ws := pending[app]
		out, skipped, err := delta.CheckDelta(app, ws)
		if err != nil {
			t.Fatalf("CheckDelta(%s): %v", app, err)
		}
		pending[app] = nil // consumed: the next event starts a fresh delta
		if !skipped {
			last[app] = out
		}
		want, err := ref.Check(app)
		if err != nil {
			t.Fatalf("reference Check(%s): %v", app, err)
		}
		if got := last[app]; !reflect.DeepEqual(comparable(got), comparable(want)) {
			t.Fatalf("delta and full evaluation diverged on %s (skipped=%v):\n got %+v\nwant %+v",
				app, skipped, comparable(got), comparable(want))
		}
	}

	for i := 0; i < 500; i++ {
		app := apps[rng.Intn(len(apps))]
		if !mutate(app) {
			continue
		}
		ev := <-sub.C()
		if ev.AppID() != app {
			t.Fatalf("event for %q after a write to %q", ev.AppID(), app)
		}
		if pending[app] == nil {
			pending[app] = store.NewWriteSet()
		}
		pending[app].AddEvent(ev)

		if rng.Intn(3) == 0 {
			checkOne(apps[rng.Intn(len(apps))])
		}
		if i == 250 {
			// Mid-stream redeploy: the generation bump must invalidate
			// every cached entry on both sides identically.
			deployBoth("c-pos", positionControl)
		}
	}
	for _, app := range apps {
		checkOne(app)
	}

	ds := delta.DeltaStats()
	if ds.Checks == 0 {
		t.Fatalf("delta path never exercised: %+v", ds)
	}
	if ds.Skips == 0 || ds.Partials == 0 || ds.Fallbacks == 0 {
		t.Fatalf("property run did not cover skip+partial+fallback paths: %+v", ds)
	}
}

// TestDeltaSkipNoAllocs gates the no-affected-controls fast path: a write
// set that provably cannot affect any deployed control must be dismissed
// without a single allocation (and without touching the store).
func TestDeltaSkipNoAllocs(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("c-pref", "prefiltered", prefilteredControl); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)
	if _, _, err := reg.CheckDelta("A1", nil); err != nil { // warm the cache (counted fallback)
		t.Fatal(err)
	}

	// An update that fails the position-type prefilter in both images
	// cannot enter the binder's candidate set, so no control is affected.
	v := f.st.TraceVersion("A1")
	mk := func(pos string) *provenance.Node {
		return &provenance.Node{ID: "A1-req", Class: provenance.ClassData,
			Type: "jobRequisition", AppID: "A1", Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"reqID":        provenance.String("REQ-A1"),
				"positionType": provenance.String(pos),
			})}
	}
	ws := store.NewWriteSet()
	ws.AddEvent(store.Event{Kind: store.EventNodeUpdate, TraceVersion: v + 1,
		Node: mk("backfill"), Prev: mk("existing")})

	allocs := testing.AllocsPerRun(200, func() {
		out, skipped, err := reg.CheckDelta("A1", ws)
		if err != nil || !skipped || out != nil {
			t.Fatalf("skip path = (%v, %v, %v)", out, skipped, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unaffected-delta fast path allocates: %v allocs/op", allocs)
	}
	ds := reg.DeltaStats()
	if ds.Skips == 0 || ds.ControlsSkipped == 0 {
		t.Fatalf("skips not counted: %+v", ds)
	}
}

// maxPartialAllocsPerControl is what a partial CheckDelta costs per
// affected control, the call's own slices and cache entry spread over
// them: each outcome is one object holding its Result and its one
// binding, plus the binding's ID array; the binding memo is pooled.
const maxPartialAllocsPerControl = 4

// TestDeltaPartialAllocs gates the partial path: a write set that
// affects three of four controls re-evaluates those three and splices
// the fourth from the cache, within maxPartialAllocsPerControl per
// affected control.
func TestDeltaPartialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{positionControl, gmControl, positionControl, prefilteredControl} {
		if _, err := reg.Deploy(fmt.Sprintf("c%d", i), "", text); err != nil {
			t.Fatal(err)
		}
	}
	f.addTrace(t, "A1", false, true)
	if _, _, err := reg.CheckDelta("A1", nil); err != nil { // warm the cache
		t.Fatal(err)
	}
	// Two updates of the requisition that keep it an existing position:
	// every unfiltered binder is affected, the "new"-prefiltered one is
	// not. The set reaches past the store's version, so the entry stays
	// at that version and every run takes the partial path again.
	v := f.st.TraceVersion("A1")
	req := f.st.Node("A1-req")
	ws := store.NewWriteSet()
	ws.AddEvent(store.Event{Kind: store.EventNodeUpdate, TraceVersion: v + 1, Node: req, Prev: req})
	ws.AddEvent(store.Event{Kind: store.EventNodeUpdate, TraceVersion: v + 100, Node: req, Prev: req})
	const affected = 3
	before := reg.DeltaStats()
	allocs := testing.AllocsPerRun(200, func() {
		out, skipped, err := reg.CheckDelta("A1", ws)
		if err != nil || skipped || len(out) != 4 {
			t.Fatalf("partial path = (%d outcomes, %v, %v)", len(out), skipped, err)
		}
	})
	ds := reg.DeltaStats()
	if runs := ds.Partials - before.Partials; runs != 201 || ds.ControlsEvaluated-before.ControlsEvaluated != affected*runs {
		t.Fatalf("not the partial path every run: %+v", ds)
	}
	if per := allocs / affected; per > maxPartialAllocsPerControl {
		t.Fatalf("partial CheckDelta allocates %.2f objects per affected control, ceiling %d", per, maxPartialAllocsPerControl)
	}
}

// TestCkWorkerMergesWriteSets pins the dirty-set coalescing contract:
// overlapping write sets merge losslessly, a version gap degrades to
// full, and a manual full kick (nil) absorbs later deltas.
func TestCkWorkerMergesWriteSets(t *testing.T) {
	mkWS := func(versions ...uint64) *store.WriteSet {
		ws := store.NewWriteSet()
		for _, v := range versions {
			ws.AddEvent(store.Event{Kind: store.EventNode, TraceVersion: v,
				Node: &provenance.Node{ID: fmt.Sprintf("n%d", v), Type: "t", AppID: "A"}})
		}
		return ws
	}

	w := newCkWorker(nil)
	if !w.mark("A", mkWS(3, 4)) {
		t.Fatal("first mark not fresh")
	}
	if w.mark("A", mkWS(5)) {
		t.Fatal("coalesced mark reported fresh")
	}
	j, ok := w.next()
	if !ok || j.app != "A" || !j.check {
		t.Fatalf("next = %+v, %v", j, ok)
	}
	if ws := j.ws; ws.Full() || ws.Base() != 2 || ws.Max() != 5 || len(ws.Nodes) != 3 {
		t.Fatalf("merged set = full=%v (%d,%d] %d nodes", ws.Full(), ws.Base(), ws.Max(), len(ws.Nodes))
	}

	// A gap between the pending delta and the new one must not claim
	// contiguous coverage.
	w.mark("B", mkWS(3))
	w.mark("B", mkWS(9))
	if j, _ = w.next(); !j.ws.Full() {
		t.Fatal("gap merge did not degrade to full")
	}

	// nil = manual full kick; later deltas cannot narrow it.
	w.mark("C", nil)
	w.mark("C", mkWS(12))
	if j, _ = w.next(); j.ws != nil {
		t.Fatalf("full kick narrowed to %+v", j.ws)
	}

	// Claiming removes the trace from the dirty set: re-marking after
	// next() is fresh again.
	w.mark("A", mkWS(6))
	if _, ok = w.next(); !ok {
		t.Fatal("worker drained early")
	}
	if !w.mark("A", mkWS(7)) {
		t.Fatal("re-mark after claim not fresh")
	}
	w.close()
	if _, ok = w.next(); !ok { // drains the queued trace first
		t.Fatal("close dropped a queued trace")
	}
	if _, ok = w.next(); ok {
		t.Fatal("closed worker still yields traces")
	}
}

// TestCkWorkerOrdersDrops pins how a drop queues against checks of the
// same trace: a write set queued before the drop is discarded, writes
// after it are checked after the forget, and a drop that finds the
// trace claimed (its check running) queues behind that check.
func TestCkWorkerOrdersDrops(t *testing.T) {
	w := newCkWorker(nil)
	w.mark("A", store.NewWriteSet())
	if w.drop("A") {
		t.Fatal("drop of a queued trace reported fresh")
	}
	if j, _ := w.next(); j.app != "A" || !j.forget || j.check {
		t.Fatalf("queued write set survived the drop: %+v", j)
	}

	if !w.drop("B") {
		t.Fatal("drop of an idle trace not fresh")
	}
	ws := store.NewWriteSet()
	if w.mark("B", ws) {
		t.Fatal("write after a queued drop reported fresh")
	}
	if j, _ := w.next(); j.app != "B" || !j.forget || !j.check || j.ws != ws {
		t.Fatalf("write after the drop not checked after the forget: %+v", j)
	}

	w.mark("C", nil)
	if j, _ := w.next(); j.app != "C" || j.forget {
		t.Fatalf("claim = %+v", j)
	}
	if !w.drop("C") {
		t.Fatal("drop during a running check not queued behind it")
	}
	if j, _ := w.next(); j.app != "C" || !j.forget || j.check {
		t.Fatalf("drop behind a running check = %+v", j)
	}
}

// TestDeltaConcurrentMarkDirtyAndRestart hammers the checker with
// concurrent overlapping MarkDirtyDelta calls, live store writes and
// Stop/Start cycles, then verifies no trace ends with a stale verdict and
// no re-check errored. Run under -race this doubles as the engine's
// coalescing race test.
func TestDeltaConcurrentMarkDirtyAndRestart(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("c-gm", "gm", gmControl); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("c-pref", "prefiltered", prefilteredControl); err != nil {
		t.Fatal(err)
	}

	apps := make([]string, 8)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%d", i)
		f.addTrace(t, apps[i], i%2 == 0, i%3 == 0)
	}

	var obsMu sync.Mutex
	latest := map[string][]*Outcome{}
	ch := NewCheckerOpts(reg, recordFunc(func(out []*Outcome) {
		if len(out) == 0 {
			return
		}
		obsMu.Lock()
		latest[out[0].Result.AppID] = out
		obsMu.Unlock()
	}), CheckerOptions{Workers: 4})
	ch.Start()

	var wg sync.WaitGroup
	// Markers: overlapping delta kicks for the same traces from several
	// goroutines at once.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				app := apps[rng.Intn(len(apps))]
				v := f.st.TraceVersion(app)
				ws := store.NewWriteSet()
				ws.AddEvent(store.Event{Kind: store.EventNodeUpdate, TraceVersion: v,
					Node: &provenance.Node{ID: app + "-req", Type: "jobRequisition", AppID: app,
						Attrs: provenance.AttrsOf(map[string]provenance.Value{"positionType": provenance.String("new")})}})
				ch.MarkDirtyDelta(app, ws)
			}
		}(g)
	}
	// Writer: live store commits flow through the dispatcher concurrently
	// with the manual kicks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			app := apps[rng.Intn(len(apps))]
			pos := []string{"new", "existing"}[rng.Intn(2)]
			if err := f.st.UpdateNode(&provenance.Node{ID: app + "-req", Class: provenance.ClassData,
				Type: "jobRequisition", AppID: app, Attrs: provenance.AttrsOf(map[string]provenance.Value{
					"reqID":        provenance.String("REQ-" + app),
					"positionType": provenance.String(pos),
				})}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Restarter: the engine stops and restarts underneath the markers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			ch.Stop()
			ch.Start()
		}
	}()
	wg.Wait()

	// Marks landing in a stopped window are documented no-ops and store
	// events from that window are unsubscribed, so close the run with one
	// guaranteed full re-check per trace on a running engine.
	ch.Start()
	for _, app := range apps {
		ch.MarkDirty(app)
	}
	ch.WaitFor(f.st.Stats().Seq)
	stats := ch.Stats()
	ch.Stop()

	if stats.Errors > 0 {
		t.Fatalf("re-check errors: %d (last: %s)", stats.Errors, stats.LastError)
	}
	ref, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Deploy("c-gm", "gm", gmControl); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Deploy("c-pref", "prefiltered", prefilteredControl); err != nil {
		t.Fatal(err)
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	for _, app := range apps {
		want, err := ref.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		got := latest[app]
		if got == nil {
			t.Fatalf("trace %s never reached the observer", app)
		}
		if !reflect.DeepEqual(comparable(got), comparable(want)) {
			t.Fatalf("trace %s stale after concurrent marks + restarts:\n got %+v\nwant %+v",
				app, comparable(got), comparable(want))
		}
	}
}

// TestDeltaNoEntryFallbacks: a delta check on a trace the registry has
// never evaluated falls back and is counted apart from the other
// fallbacks; a nil write set never consults the cache, and a trace with
// an entry does not count again.
func TestDeltaNoEntryFallbacks(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("c-pref", "prefiltered", prefilteredControl); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)
	f.addTrace(t, "A2", true, true)
	ws := func(app string) *store.WriteSet {
		w := store.NewWriteSet()
		w.AddEvent(store.Event{Kind: store.EventNode, TraceVersion: f.st.TraceVersion(app),
			Node: &provenance.Node{ID: app + "-x", Type: "jobRequisition", AppID: app}})
		return w
	}
	if _, _, err := reg.CheckDelta("A1", nil); err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"A1", "A2"} {
		if _, _, err := reg.CheckDelta(app, ws(app)); err != nil {
			t.Fatal(err)
		}
	}
	if ds := reg.DeltaStats(); ds.Fallbacks != 2 || ds.NoEntryFallbacks != 1 {
		t.Fatalf("delta stats = %+v, want 2 fallbacks (nil write set, A2's first check), 1 of them without an entry", ds)
	}
}
