package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/workload"
)

func hiring(t testing.TB) *workload.Domain {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSystemBatchLifecycle(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	res := d.Simulate(workload.SimOptions{Seed: 2, Traces: 30, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	if sys.Pipeline.Stats().Recorded == 0 {
		t.Fatal("nothing recorded")
	}
	if err := sys.CorrelateAll(); err != nil {
		t.Fatal(err)
	}
	if sys.Correlator.Stats().EdgesDerived == 0 {
		t.Fatal("no edges derived")
	}
	outcomes, err := sys.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 30*len(d.Controls) {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	// Dashboard got fed.
	kpis := sys.Board.Snapshot()
	if len(kpis) != len(d.Controls) {
		t.Fatalf("kpis = %d", len(kpis))
	}
	// Fig 2 materialization happened.
	var customs int
	err = sys.Store.View(func(g *provenance.Graph) error {
		customs = len(g.Nodes(provenance.NodeFilter{Class: provenance.ClassCustom}))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if customs != 30*len(d.Controls) {
		t.Fatalf("materialized control points = %d", customs)
	}
	// Query engine answers over the same store.
	nodes, err := sys.Query.Run(query.Query{Type: "jobRequisition"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 30 {
		t.Fatalf("requisitions = %d", len(nodes))
	}
}

func TestSystemContinuousMode(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	res := d.Simulate(workload.SimOptions{Seed: 4, Traces: 5, ViolationRate: 0.5, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	// Correlation and checking happen on the change feed; wait for the
	// dashboard to converge to 5 traces per control.
	deadline := time.After(10 * time.Second)
	for {
		kpis := sys.Board.Snapshot()
		done := len(kpis) == len(d.Controls)
		for _, k := range kpis {
			if k.Total < 5 {
				done = false
			}
		}
		if done {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("dashboard never converged: %+v", sys.Board.Snapshot())
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Verdicts agree with ground truth once the feed drains.
	var violatedTruth int
	for _, tr := range res.Truth {
		if tr.Violation {
			violatedTruth++
		}
	}
	waitForStableVerdicts(t, sys, res, violatedTruth)
}

func waitForStableVerdicts(t *testing.T, sys *core.System, res *workload.SimResult, want int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		violated := 0
		for app, truth := range res.Truth {
			outcomes, err := sys.Registry.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outcomes {
				if o.Result.Verdict == rules.Violated && truth.ControlID == o.ControlID {
					violated++
				}
			}
		}
		if violated == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("violations = %d, want %d", violated, want)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestSystemPersistenceAcrossRestart(t *testing.T) {
	d := hiring(t)
	dir := t.TempDir()
	sys, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := d.Simulate(workload.SimOptions{Seed: 6, Traces: 10, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	if err := sys.CorrelateAll(); err != nil {
		t.Fatal(err)
	}
	before, err := sys.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	after, err := sys2.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("outcomes %d != %d after restart", len(after), len(before))
	}
	for i := range before {
		if before[i].Result.Verdict != after[i].Result.Verdict ||
			before[i].Result.AppID != after[i].Result.AppID {
			t.Fatalf("outcome %d changed across restart", i)
		}
	}
}

func TestSystemNilDomain(t *testing.T) {
	if _, err := core.New(nil, core.Config{}); err == nil {
		t.Fatal("nil domain accepted")
	}
}

func TestSystemCorrelateTrace(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 8, Traces: 2, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	app := sys.Store.AppIDs()[0]
	if err := sys.CorrelateTrace(app); err != nil {
		t.Fatal(err)
	}
	outcomes, err := sys.Check(app)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(d.Controls) {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
}

func TestDeployedControlsSurviveRestart(t *testing.T) {
	d := hiring(t)
	dir := t.TempDir()
	sys, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	custom := `
definitions
  set 'r' to a job requisition ;
if the candidate list of 'r' exists then the internal control is satisfied ;
`
	if _, err := sys.DeployControl("user-control", "User deployed", custom); err != nil {
		t.Fatal(err)
	}
	// Redeploy to advance the version past 1.
	cp, err := sys.DeployControl("user-control", "", custom)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != 2 {
		t.Fatalf("version = %d", cp.Version)
	}
	// Also tighten a domain control; the edited version must survive too.
	edited := `
definitions
  set 'the request' to a job requisition ;
if the approval of 'the request' exists then the internal control is satisfied ;
`
	if _, err := sys.DeployControl("gm-approval", "", edited); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	got := sys2.Registry.Get("user-control")
	if got == nil {
		t.Fatal("user control lost across restart")
	}
	if got.Version < 2 || got.Name != "User deployed" {
		t.Fatalf("restored control = %+v", got)
	}
	gm := sys2.Registry.Get("gm-approval")
	if gm == nil || !strings.Contains(gm.Text, "the approval of 'the request' exists then") {
		t.Fatalf("edited domain control not restored: %+v", gm)
	}
	// Removal persists as well.
	if err := sys2.RemoveControl("user-control"); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	sys3, err := core.New(d, core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys3.Close()
	if sys3.Registry.Get("user-control") != nil {
		t.Fatal("removed control resurrected")
	}
}

// TestSystemTieredDemotion wires the tier knobs through core: a durable
// system with an aggressive cold threshold and a fast compaction
// heartbeat demotes untouched traces to sealed segments on its own, and
// demoted traces stay fully checkable. The ablation keeps everything
// resident.
func TestSystemTieredDemotion(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{
		Dir:              t.TempDir(),
		SegmentColdAfter: 1,
		CompactEvery:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	res := d.Simulate(workload.SimOptions{Seed: 11, Traces: 6, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	if err := sys.CorrelateAll(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.Store.Tiering().SealedTraces == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("compaction heartbeat never demoted: %+v", sys.Store.Tiering())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Demoted traces still answer compliance checks through rehydration.
	out, err := sys.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6*len(d.Controls) {
		t.Fatalf("outcomes = %d, want %d", len(out), 6*len(d.Controls))
	}

	abl, err := core.New(d, core.Config{Dir: t.TempDir(), DisableTiering: true, SegmentColdAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer abl.Close()
	if ti := abl.Store.Tiering(); ti.Enabled {
		t.Fatalf("ablation reports tiering enabled: %+v", ti)
	}
	if err := abl.Store.DemoteTraces("x"); err == nil {
		t.Fatal("ablation accepted a demotion")
	}
}

// TestCorrelateSealedTrace pins bench finding 2 at its cause: the edges a
// batch causes commit with it, so a trace sealed the moment its batch is
// acknowledged is sealed complete. It used to be sealed bare — the
// correlator had not reached it yet — and its seeded violations read as
// satisfied until a repair ran.
func TestCorrelateSealedTrace(t *testing.T) {
	d := hiring(t)
	res := d.Simulate(workload.SimOptions{Seed: 5, Traces: 12, ViolationRate: 0.5, Visibility: 1.0})

	// Reference: everything resident.
	ref, err := core.New(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}

	// Subject: through the gateway, demoted as soon as the ack says applied.
	sys, err := core.New(d, core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Gateway.Offer("sealed-1", res.Events); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Gateway.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	var apps []string
	for _, tr := range res.Truth {
		apps = append(apps, tr.AppID)
	}
	if err := sys.Store.DemoteTraces(apps...); err != nil {
		t.Fatal(err)
	}
	if got := sys.Store.Tiering().SealedTraces; got != len(apps) {
		t.Fatalf("sealed traces = %d, want %d", got, len(apps))
	}

	violated := 0
	for _, tr := range res.Truth {
		want, err := ref.Check(tr.AppID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.Check(tr.AppID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d outcomes, want %d", tr.AppID, len(got), len(want))
		}
		for i := range want {
			if got[i].ControlID != want[i].ControlID || got[i].Result.Verdict != want[i].Result.Verdict {
				t.Errorf("%s %s: verdict %v after sealing, %v resident",
					tr.AppID, want[i].ControlID, got[i].Result.Verdict, want[i].Result.Verdict)
			}
			if tr.Violation && want[i].ControlID == tr.ControlID && want[i].Result.Verdict == rules.Violated {
				violated++
			}
		}
	}
	if violated == 0 {
		t.Fatal("no seeded violation in the sample; the test proves nothing")
	}
	// The repair path reads the sealed traces and finds nothing to add.
	seq, promoted := sys.Store.Stats().Seq, sys.Store.Tiering().PromotedTraces
	for _, app := range apps {
		if err := sys.CorrelateTrace(app); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Store.Stats().Seq; got != seq || sys.Store.Tiering().PromotedTraces != promoted {
		t.Fatalf("repair wrote to complete sealed traces: seq %d -> %d", seq, got)
	}
}

// TestBoardKeepsNewestVerdict pins bench finding 3: System.Check and the
// continuous checker both record on the dashboard, each from the snapshot
// it happened to read. An evaluation of an older trace version that
// records after a newer one must not overwrite it.
func TestBoardKeepsNewestVerdict(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 5, Traces: 12, ViolationRate: 0.5, Visibility: 1.0})
	byApp := map[string][]events.AppEvent{}
	for _, ev := range res.Events {
		byApp[ev.AppID] = append(byApp[ev.AppID], ev)
	}
	verdictOf := func(out []*controls.Outcome, control string) rules.Verdict {
		for _, o := range out {
			if o.ControlID == control {
				return o.Result.Verdict
			}
		}
		t.Fatalf("no outcome for control %s", control)
		return 0
	}
	proved := false
	wantViolated := map[string]int{} // control -> traces whose newest verdict is violated
	for _, tr := range res.Truth {
		if !tr.Violation {
			continue
		}
		// The slow reader evaluates the trace half way through...
		evs := byApp[tr.AppID]
		if err := sys.Ingest(evs[:len(evs)/2]); err != nil {
			t.Fatal(err)
		}
		stale, err := sys.Registry.Check(tr.AppID)
		if err != nil {
			t.Fatal(err)
		}
		// ...the rest lands and the newer version is checked and recorded...
		if err := sys.Ingest(evs[len(evs)/2:]); err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.Check(tr.AppID)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range fresh {
			if o.Result.Verdict == rules.Violated {
				wantViolated[o.ControlID]++
			}
		}
		// ...and only then does the slow reader get to record.
		sys.Board.Record(stale)
		if verdictOf(fresh, tr.ControlID) == rules.Violated && verdictOf(stale, tr.ControlID) != rules.Violated {
			proved = true
		}
	}
	if !proved {
		t.Fatal("no violation in the sample depends on the trace's second half; the test proves nothing")
	}
	for _, k := range sys.Board.Snapshot() {
		if k.Violated != wantViolated[k.ControlID] {
			t.Errorf("%s: board shows %d violated, newest verdicts say %d", k.ControlID, k.Violated, wantViolated[k.ControlID])
		}
	}
}
