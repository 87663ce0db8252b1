package controls

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/tenant"
)

// strictControl diverges from gmControl: it demands the approval even
// for existing positions, so traces without one flip from Satisfied to
// Violated — the shadow-divergence fixture.
const strictControl = `
definitions
  set 'the request' to a job requisition ;
if
  the approval of 'the request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "approval missing" ;
`

// TestTenantControlScoping pins namespacing: a control deployed inside
// one tenant only ever evaluates that tenant's traces, and a trace only
// ever meets its own tenant's controls.
func TestTenantControlScoping(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm", "default GM", gmControl); err != nil {
		t.Fatal(err)
	}
	acme, err := reg.DeployTenant("acme", "gm", "acme GM", strictControl)
	if err != nil {
		t.Fatal(err)
	}
	if acme.ID != "acme::gm" || acme.Tenant != "acme" {
		t.Fatalf("acme control = %q tenant %q", acme.ID, acme.Tenant)
	}
	// Same bare ID, two namespaces, no collision.
	if reg.GetTenant("acme", "gm") == nil || reg.Get("gm") == nil {
		t.Fatal("lookup by tenant failed")
	}
	if got := len(reg.ListTenant("acme")); got != 1 {
		t.Fatalf("acme controls = %d", got)
	}

	// One trace per tenant: the default trace lacks an approval on an
	// existing position (default control satisfied, strict would violate).
	if err := putTrace(f, "JR-1", false, false); err != nil {
		t.Fatal(err)
	}
	if err := putTrace(f, "acme::JR-1", false, false); err != nil {
		t.Fatal(err)
	}

	out, err := reg.Check("JR-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ControlID != "gm" || out[0].Tenant != tenant.DefaultID {
		t.Fatalf("default trace outcomes = %+v", out)
	}
	if out[0].Result.Verdict != rules.Satisfied {
		t.Fatalf("default verdict = %v", out[0].Result.Verdict)
	}

	out, err = reg.Check("acme::JR-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ControlID != "acme::gm" || out[0].Tenant != "acme" {
		t.Fatalf("acme trace outcomes = %+v", out)
	}
	if out[0].Result.Verdict != rules.Violated {
		t.Fatalf("acme verdict = %v (strict control should violate)", out[0].Result.Verdict)
	}

	// An unknown tenant's trace meets no controls at all.
	if out, err := reg.Check("ghost::JR-9"); err != nil || len(out) != 0 {
		t.Fatalf("ghost tenant outcomes = %v, %v", out, err)
	}
}

// TestShadowDivergenceAndPromote pins the rollout lifecycle: a shadow
// candidate accrues divergence without changing live verdicts, Promote
// swaps it in atomically, Rollback discards it.
func TestShadowDivergenceAndPromote(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	// Existing position without approval: live Satisfied, strict Violated.
	if err := putTrace(f, "JR-1", false, false); err != nil {
		t.Fatal(err)
	}
	// New position with approval: both Satisfied (no divergence).
	if err := putTrace(f, "JR-2", true, true); err != nil {
		t.Fatal(err)
	}

	cp, err := reg.DeployShadow("gm", strictControl)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.HasShadow() || cp.ShadowVersion() != 2 || cp.ShadowText() != strictControl {
		t.Fatalf("shadow state = has=%v v=%d", cp.HasShadow(), cp.ShadowVersion())
	}

	for _, app := range []string{"JR-1", "JR-2"} {
		out, err := reg.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		// Live verdicts are untouched by the shadow.
		if out[0].Version != 1 || out[0].Result.Verdict != rules.Satisfied {
			t.Fatalf("%s live outcome = v%d %v", app, out[0].Version, out[0].Result.Verdict)
		}
	}
	st := reg.ShadowStats()
	if st.Controls != 1 || st.Checks != 2 || st.Divergences != 1 {
		t.Fatalf("shadow stats = %+v", st)
	}
	if len(st.Samples) != 1 || st.Samples[0].AppID != "JR-1" ||
		st.Samples[0].Live != "satisfied" || st.Samples[0].Shadow != "violated" {
		t.Fatalf("shadow sample = %+v", st.Samples)
	}
	if st.ByControl["gm"] != 1 {
		t.Fatalf("byControl = %+v", st.ByControl)
	}

	// Promote: the strict version goes live at the shadow version.
	live, err := reg.Promote("gm")
	if err != nil {
		t.Fatal(err)
	}
	if live.Version != 2 || live.HasShadow() || live.Text != strictControl {
		t.Fatalf("promoted = v%d shadow=%v", live.Version, live.HasShadow())
	}
	out, err := reg.Check("JR-1")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Version != 2 || out[0].Result.Verdict != rules.Violated {
		t.Fatalf("post-promote outcome = v%d %v", out[0].Version, out[0].Result.Verdict)
	}
	if _, err := reg.Promote("gm"); err == nil {
		t.Fatal("promote without shadow should error")
	}

	// Rollback: candidate discarded, live untouched.
	if _, err := reg.DeployShadow("gm", gmControl); err != nil {
		t.Fatal(err)
	}
	rb, err := reg.Rollback("gm")
	if err != nil {
		t.Fatal(err)
	}
	if rb.HasShadow() || rb.Version != 2 {
		t.Fatalf("rollback = v%d shadow=%v", rb.Version, rb.HasShadow())
	}
	if _, err := reg.Rollback("gm"); err == nil {
		t.Fatal("rollback without shadow should error")
	}
}

// TestPromoteAtomicity hammers Check while shadow deploy/promote cycles
// run: every single evaluation must see exactly one live version of the
// control — one outcome, carrying a version that was live at some
// moment — never zero outcomes and never two.
func TestPromoteAtomicity(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	if err := putTrace(f, "JR-1", true, true); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var maxPromoted atomic.Int64
	maxPromoted.Store(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := reg.DeployShadow("gm", strictControl); err != nil {
				t.Error(err)
				return
			}
			cp, err := reg.Promote("gm")
			if err != nil {
				t.Error(err)
				return
			}
			maxPromoted.Store(int64(cp.Version))
		}
		stop.Store(true)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				out, err := reg.Check("JR-1")
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != 1 {
					t.Errorf("check saw %d outcomes for one control", len(out))
					return
				}
				v := out[0].Version
				if v < 1 || int64(v) > maxPromoted.Load()+1 {
					t.Errorf("check saw version %d outside the live range", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cp := reg.Get("gm"); cp.Version != 51 {
		t.Fatalf("final version = %d, want 51", cp.Version)
	}
}

// slowEval is a deliberately slow Evaluator: it makes checker backlogs
// persist long enough for scheduling order to be observable.
type slowEval struct{ d time.Duration }

func (s slowEval) Evaluate(g *provenance.Graph, appID string) *rules.Result {
	time.Sleep(s.d)
	return &rules.Result{AppID: appID, Verdict: rules.Satisfied}
}

func (s slowEval) Text() string { return "slow" }

// TestCkWorkerFairShare pins stride scheduling at the queue level: a
// quiet tenant's single dirty trace does not wait behind a noisy
// tenant's backlog, and weights bias service proportionally.
func TestCkWorkerFairShare(t *testing.T) {
	w := newCkWorker(func(tn string) int {
		if tn == "heavy" {
			return 3
		}
		return 1
	})
	for i := 0; i < 50; i++ {
		w.mark(fmt.Sprintf("noisy::T-%03d", i), nil)
	}
	w.mark("quiet::T-0", nil)
	// The quiet trace must surface within the first few claims despite 50
	// queued ahead of it.
	pos := -1
	for i := 0; i < 51; i++ {
		app, _, ok := w.next()
		if !ok {
			t.Fatal("worker drained early")
		}
		if app == "quiet::T-0" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 3 {
		t.Fatalf("quiet trace served at position %d, want <= 3", pos)
	}

	// Weighted service: tenant "heavy" (weight 3) gets ~3x the claims of
	// tenant "light" (weight 1) while both stay backlogged.
	w2 := newCkWorker(func(tn string) int {
		if tn == "heavy" {
			return 3
		}
		return 1
	})
	for i := 0; i < 40; i++ {
		w2.mark(fmt.Sprintf("heavy::T-%03d", i), nil)
		w2.mark(fmt.Sprintf("light::T-%03d", i), nil)
	}
	heavy := 0
	for i := 0; i < 20; i++ {
		app, _, _ := w2.next()
		if tenant.Owner(app) == "heavy" {
			heavy++
		}
	}
	if heavy < 13 || heavy > 17 {
		t.Fatalf("heavy claims in first 20 = %d, want ~15", heavy)
	}

	// One tenant is one queue: strictly arrival order.
	w3 := newCkWorker(nil)
	for i := 0; i < 10; i++ {
		w3.mark(fmt.Sprintf("noisy::T-%03d", i), nil)
	}
	for i := 0; i < 10; i++ {
		app, _, _ := w3.next()
		if app != fmt.Sprintf("noisy::T-%03d", i) {
			t.Fatalf("FIFO order broken at %d: %s", i, app)
		}
	}
}

// TestFairShareQuietTenantLatency is the two-tenant stress the CI race
// step runs: a noisy tenant floods the (single-worker) checker with a
// large backlog of slow re-checks; a quiet tenant's trace marked
// afterwards must still be served almost immediately.
func TestFairShareQuietTenantLatency(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.deployEvaluator(tenant.DefaultID, "slow-noisy", "slow", slowEval{200 * time.Microsecond}, "slow"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.deployEvaluator("quiet", "slow-quiet", "slow", slowEval{200 * time.Microsecond}, "slow"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	ch := NewCheckerOpts(reg, func(out []*Outcome) {
		if len(out) == 0 {
			return
		}
		mu.Lock()
		order = append(order, out[0].Result.AppID)
		mu.Unlock()
	}, CheckerOptions{Workers: 1})
	ch.Start()
	defer ch.Stop()

	const backlog = 120
	for i := 0; i < backlog; i++ {
		ch.MarkDirty(fmt.Sprintf("JR-%04d", i))
	}
	ch.MarkDirty("quiet::T-1")
	ch.WaitFor(0)

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, app := range order {
		if app == "quiet::T-1" {
			pos = i
			break
		}
	}
	// The quiet trace rides in near the front regardless of the backlog.
	// The loose bound keeps the assertion robust to how many noisy checks
	// complete before the quiet mark lands.
	if pos < 0 || pos > 30 {
		t.Errorf("quiet tenant served at position %d of %d, want near front", pos, len(order))
	}
}

// TestWaitTenantSurvivesEarlyDecrement is the regression test for the
// lost decrement: a worker that finishes a re-check before the marker has
// counted the trace takes the tenant's pending count to -1; dropping the
// entry there stranded the late increment at +1 and WaitTenant blocked
// forever. Run it under -race, which widens the window.
func TestWaitTenantSurvivesEarlyDecrement(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch := NewCheckerOpts(reg, nil, CheckerOptions{Workers: 1})
	ch.Start()
	defer ch.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			ch.MarkDirty(fmt.Sprintf("acme::T-%d", i%7))
			ch.WaitTenant("acme", 0)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("WaitTenant never returned; stats: %+v", ch.Stats())
	}
	if st := ch.Stats(); len(st.TenantPending) != 0 || st.QueueDepth != 0 {
		t.Fatalf("pending counts at quiescence: tenants %v, depth %d", st.TenantPending, st.QueueDepth)
	}
}
