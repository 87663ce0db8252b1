package dashboard

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/controls"
	"repro/internal/rules"
)

func outcome(control, app string, v rules.Verdict, alerts ...string) *controls.Outcome {
	return &controls.Outcome{
		ControlID: control, Name: "Control " + control, Version: 1,
		Result: &rules.Result{AppID: app, Verdict: v, Alerts: alerts},
	}
}

func TestBoardKPIs(t *testing.T) {
	b := New(0)
	b.Record([]*controls.Outcome{
		outcome("c1", "A1", rules.Satisfied),
		outcome("c1", "A2", rules.Violated, "boom"),
		outcome("c1", "A3", rules.Indeterminate),
		outcome("c1", "A4", rules.NotApplicable),
		outcome("c2", "A1", rules.Satisfied),
	})
	kpis := b.Snapshot()
	if len(kpis) != 2 {
		t.Fatalf("kpis = %d", len(kpis))
	}
	c1 := kpis[0]
	if c1.ControlID != "c1" || c1.Total != 4 || c1.Satisfied != 1 || c1.Violated != 1 ||
		c1.Indeterminate != 1 || c1.NotApplicable != 1 {
		t.Fatalf("c1 = %+v", c1)
	}
	if c1.ComplianceRate != 0.5 || c1.DefiniteRate != 0.5 {
		t.Fatalf("rates = %v / %v", c1.ComplianceRate, c1.DefiniteRate)
	}
	if kpis[1].ComplianceRate != 1.0 {
		t.Fatalf("c2 = %+v", kpis[1])
	}
}

func TestBoardRecheckReplacesVerdict(t *testing.T) {
	b := New(0)
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Violated, "first")})
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Satisfied)})
	kpis := b.Snapshot()
	if kpis[0].Total != 1 || kpis[0].Satisfied != 1 || kpis[0].Violated != 0 {
		t.Fatalf("kpi = %+v", kpis[0])
	}
}

func TestBoardViolationFeedTransitionsOnly(t *testing.T) {
	b := New(0)
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Violated, "a1 broke")})
	// Re-checking the same violated trace must not duplicate the entry.
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Violated, "a1 broke")})
	// Flipping to satisfied and back violates again: a new entry.
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Satisfied)})
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Violated, "a1 broke again")})
	got := b.RecentViolations(0)
	if len(got) != 2 {
		t.Fatalf("violations = %d", len(got))
	}
	if got[0].Alerts[0] != "a1 broke again" || got[1].Alerts[0] != "a1 broke" {
		t.Fatalf("feed order = %+v", got)
	}
}

func TestBoardViolationCap(t *testing.T) {
	b := New(3)
	for i := 0; i < 10; i++ {
		app := string(rune('A' + i))
		b.Record([]*controls.Outcome{outcome("c1", app, rules.Violated)})
	}
	got := b.RecentViolations(0)
	if len(got) != 3 {
		t.Fatalf("capped feed = %d", len(got))
	}
	if got[0].AppID != "J" {
		t.Fatalf("newest = %+v", got[0])
	}
	if top := b.RecentViolations(1); len(top) != 1 || top[0].AppID != "J" {
		t.Fatalf("RecentViolations(1) = %+v", top)
	}
}

func TestBoardRender(t *testing.T) {
	b := New(0)
	b.Record([]*controls.Outcome{
		outcome("gm-approval", "A1", rules.Satisfied),
		outcome("gm-approval", "A2", rules.Violated),
	})
	out := b.Render()
	if !strings.Contains(out, "gm-approval") || !strings.Contains(out, "50.0%") {
		t.Fatalf("Render = %s", out)
	}
	if !strings.Contains(out, "CONTROL") {
		t.Fatal("header missing")
	}
}

func TestBoardIgnoresNil(t *testing.T) {
	b := New(0)
	b.Record([]*controls.Outcome{nil, {ControlID: "x"}})
	if len(b.Snapshot()) != 0 {
		t.Fatal("nil outcomes counted")
	}
}

// TestBoardCountsMatchRecount drives the board's incremental counts with a
// random mix of per-trace checks, multi-trace batches, stale versions,
// re-records and Forget calls, and compares every Snapshot with a
// brute-force recount of the verdicts the board should hold.
func TestBoardCountsMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctls := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	apps := []string{"A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"}
	verdicts := []rules.Verdict{rules.Satisfied, rules.Violated, rules.Indeterminate, rules.NotApplicable}

	type key struct{ ctl, app string }
	type want struct {
		v   rules.Verdict
		ver uint64
	}
	model := map[key]want{}
	seen := map[string]bool{} // controls the board has been given
	b := New(0)

	outcomeAt := func(ctl, app string, ver uint64) *controls.Outcome {
		o := outcome(ctl, app, verdicts[rng.Intn(len(verdicts))])
		o.TraceVersion = ver
		return o
	}
	apply := func(batch []*controls.Outcome) {
		for _, o := range batch {
			if o == nil {
				continue
			}
			seen[o.ControlID] = true
			k := key{o.ControlID, o.Result.AppID}
			if o.TraceVersion < model[k].ver {
				continue
			}
			model[k] = want{o.Result.Verdict, o.TraceVersion}
		}
		b.Record(batch)
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // one trace checked against a shuffled subset of controls
			app := apps[rng.Intn(len(apps))]
			var batch []*controls.Outcome
			for _, i := range rng.Perm(len(ctls))[:1+rng.Intn(len(ctls))] {
				// Versions go down as well as up, so stale outcomes occur.
				batch = append(batch, outcomeAt(ctls[i], app, uint64(rng.Intn(8))))
			}
			if rng.Intn(4) == 0 {
				batch = append(batch, nil)
			}
			apply(batch)
		case op < 8: // a batch over several traces, like CheckAll
			var batch []*controls.Outcome
			for n := rng.Intn(12); n > 0; n-- {
				batch = append(batch, outcomeAt(ctls[rng.Intn(len(ctls))], apps[rng.Intn(len(apps))], uint64(rng.Intn(8))))
			}
			apply(batch)
		default: // forget a few traces
			var gone []string
			for n := rng.Intn(3); n > 0; n-- {
				gone = append(gone, apps[rng.Intn(len(apps))])
			}
			for k := range model {
				for _, app := range gone {
					if k.app == app {
						delete(model, k)
					}
				}
			}
			b.Forget(gone...)
		}

		recount := map[string]*KPI{}
		for id := range seen {
			recount[id] = &KPI{ControlID: id}
		}
		for k, w := range model {
			r := recount[k.ctl]
			r.Total++
			switch w.v {
			case rules.Satisfied:
				r.Satisfied++
			case rules.Violated:
				r.Violated++
			case rules.Indeterminate:
				r.Indeterminate++
			case rules.NotApplicable:
				r.NotApplicable++
			}
		}
		got := b.Snapshot()
		if len(got) != len(recount) {
			t.Fatalf("step %d: %d KPIs, want %d", step, len(got), len(recount))
		}
		for i, k := range got {
			if i > 0 && got[i-1].ControlID >= k.ControlID {
				t.Fatalf("step %d: KPIs out of order: %s before %s", step, got[i-1].ControlID, k.ControlID)
			}
			r := recount[k.ControlID]
			if r == nil || k.Total != r.Total || k.Satisfied != r.Satisfied || k.Violated != r.Violated ||
				k.Indeterminate != r.Indeterminate || k.NotApplicable != r.NotApplicable {
				t.Fatalf("step %d: control %s = %+v, recount %+v", step, k.ControlID, k, r)
			}
		}
	}
}

func TestBoardForget(t *testing.T) {
	b := New(0)
	b.Record([]*controls.Outcome{
		outcome("c1", "A1", rules.Violated, "a1 broke"),
		outcome("c1", "A2", rules.Satisfied),
		outcome("c2", "A1", rules.Satisfied),
	})
	b.Forget("A1", "ghost")
	kpis := b.Snapshot()
	if len(kpis) != 2 || kpis[0].Total != 1 || kpis[0].Satisfied != 1 || kpis[1].Total != 0 {
		t.Fatalf("after Forget = %+v", kpis)
	}
	if len(b.RecentViolations(0)) != 1 {
		t.Fatal("Forget rewrote the violation feed")
	}
	// A forgotten trace counts afresh, and its next violation is a new entry.
	b.Record([]*controls.Outcome{outcome("c1", "A1", rules.Violated, "a1 broke again")})
	if k := b.Snapshot()[0]; k.Total != 2 || k.Violated != 1 {
		t.Fatalf("re-recorded = %+v", k)
	}
	if len(b.RecentViolations(0)) != 2 {
		t.Fatal("violation of a forgotten trace not fed")
	}
}
