package controls

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/rules"
)

// putTrace writes one trace without going through testing.T fatal paths,
// so concurrent writers can report failures with t.Error.
func putTrace(f *fixture, app string, newPosition, withApproval bool) error {
	req := &provenance.Node{ID: app + "-req", Class: provenance.ClassData,
		Type: "jobRequisition", AppID: app, Timestamp: time.Unix(100, 0).UTC(),
		Attrs: provenance.AttrsOf(map[string]provenance.Value{
			"reqID":        provenance.String("REQ-" + app),
			"positionType": provenance.String(map[bool]string{true: "new", false: "existing"}[newPosition]),
		})}
	if err := f.st.PutNode(req); err != nil {
		return err
	}
	if !withApproval {
		return nil
	}
	ap := &provenance.Node{ID: app + "-ap", Class: provenance.ClassData,
		Type: "approvalStatus", AppID: app,
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(true)})}
	if err := f.st.PutNode(ap); err != nil {
		return err
	}
	return f.st.PutEdge(&provenance.Edge{ID: app + "-e", Type: "approvalOf", AppID: app,
		Source: app + "-ap", Target: app + "-req"})
}

// TestEngineStressConcurrent hammers the sharded engine with parallel
// writers across many traces plus Deploy/Remove churn, then asserts the
// final flagged state of every trace is exactly the state a fresh serial
// check computes — coalescing must never lose the final state. Run under
// -race this is the engine's soundness gate.
func TestEngineStressConcurrent(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}

	// The callback records the latest verdict per trace. Per-trace
	// ordering is guaranteed by sharding, so last write wins is the final
	// engine opinion of that trace.
	var verdicts sync.Map // appID -> rules.Verdict
	ch := NewCheckerOpts(reg, recordFunc(func(out []*Outcome) {
		for _, o := range out {
			if o.ControlID == "gm-approval" {
				verdicts.Store(o.Result.AppID, o.Result.Verdict)
			}
		}
	}), CheckerOptions{Workers: 4})
	ch.Start()
	defer ch.Stop()

	const writers = 4
	const perWriter = 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				app := fmt.Sprintf("S%d-%02d", w, i)
				// Odd traces lack the approval: the control is violated.
				if err := putTrace(f, app, true, i%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Deploy/Remove churn while checks are running: the registry
	// generation must stay consistent with the cache under concurrency.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, err := reg.Deploy("aux", "aux control", gmControl); err != nil {
				t.Error(err)
				return
			}
			if err := reg.Remove("aux"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	ch.WaitFor(f.st.Stats().Seq)

	// Every trace's final engine verdict equals the fresh serial verdict,
	// and each violation is flagged exactly once (one trace, one final
	// violated verdict).
	violations := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			app := fmt.Sprintf("S%d-%02d", w, i)
			want := rules.Violated
			if i%2 == 0 {
				want = rules.Satisfied
			}
			got, ok := verdicts.Load(app)
			if !ok {
				t.Fatalf("trace %s never checked", app)
			}
			if got != want {
				t.Fatalf("trace %s final verdict = %v, want %v", app, got, want)
			}
			fresh, err := reg.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			if fresh[0].Result.Verdict != want {
				t.Fatalf("serial re-check of %s = %v, want %v", app, fresh[0].Result.Verdict, want)
			}
			if got == rules.Violated {
				violations++
			}
		}
	}
	if wantV := writers * perWriter / 2; violations != wantV {
		t.Fatalf("flagged %d violations, want exactly %d", violations, wantV)
	}

	st := ch.Stats()
	if st.ChecksRun < writers*perWriter {
		t.Fatalf("ChecksRun = %d, want >= %d (each trace at least once)", st.ChecksRun, writers*perWriter)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth after quiescence = %d", st.QueueDepth)
	}
	if st.Errors != 0 {
		t.Fatalf("engine errors: %d (last: %s)", st.Errors, st.LastError)
	}
	if st.Workers != 4 {
		t.Fatalf("Workers = %d", st.Workers)
	}
}

// TestCoalescingCollapsesBurst blocks the single worker inside its first
// callback, fires a burst of events at the same trace, and verifies the
// burst collapses into exactly one further re-check.
func TestCoalescingCollapsesBurst(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	ch := NewCheckerOpts(reg, recordFunc(func([]*Outcome) {
		once.Do(func() {
			close(first)
			<-block
		})
	}), CheckerOptions{Workers: 1})
	ch.Start()
	defer ch.Stop()

	f.addTrace(t, "A1", true, false) // one event: the requisition node
	<-first                          // worker is now parked in the callback

	// Five updates to the same trace while the worker is busy.
	for i := 0; i < 5; i++ {
		req := &provenance.Node{ID: "A1-req", Class: provenance.ClassData,
			Type: "jobRequisition", AppID: "A1", Timestamp: time.Unix(100, 0).UTC(),
			Attrs: provenance.AttrsOf(map[string]provenance.Value{
				"reqID":        provenance.String(fmt.Sprintf("REQ-A1-%d", i)),
				"positionType": provenance.String("new"),
			})}
		if err := f.st.UpdateNode(req); err != nil {
			t.Fatal(err)
		}
	}
	// Ensure the dispatcher routed the whole burst before releasing the
	// worker, so every burst event had the chance to coalesce.
	deadline := time.Now().Add(5 * time.Second)
	for ch.Stats().EventsSeen < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher saw %d events, want 6", ch.Stats().EventsSeen)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	ch.WaitFor(f.st.Stats().Seq)

	st := ch.Stats()
	if st.ChecksRun != 2 {
		t.Fatalf("ChecksRun = %d, want 2 (initial + one coalesced re-check)", st.ChecksRun)
	}
	if st.Coalesced != 4 {
		t.Fatalf("Coalesced = %d, want 4 (burst of 5 minus the one that marked dirty)", st.Coalesced)
	}
	if st.EventsSeen != 6 {
		t.Fatalf("EventsSeen = %d, want 6", st.EventsSeen)
	}
}

// TestCheckerRestartLifecycle proves Stop/Start cycles cleanly: the
// engine resubscribes, keeps counting, tolerates concurrent Start calls,
// and leaks no goroutines.
func TestCheckerRestartLifecycle(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ch := NewCheckerOpts(reg, nil, CheckerOptions{Workers: 2})
	// Concurrent Start calls must collapse into one engine.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch.Start()
		}()
	}
	wg.Wait()

	f.addTrace(t, "A1", true, false)
	ch.WaitFor(f.st.Stats().Seq)
	if ch.Checked() == 0 {
		t.Fatal("no checks after first Start")
	}
	ch.Stop()
	ch.Stop() // idempotent
	afterFirst := ch.Checked()

	// Writes while stopped are not observed (the subscription is gone)...
	f.addTrace(t, "A2", true, true)
	// ...but a restart picks up new events cleanly.
	ch.Start()
	f.addTrace(t, "A3", true, false)
	ch.WaitFor(f.st.Stats().Seq)
	if got := ch.Checked(); got <= afterFirst {
		t.Fatalf("Checked after restart = %d, want > %d", got, afterFirst)
	}
	if got := ch.Latest(); len(got) == 0 {
		t.Fatal("Latest empty after restart")
	}
	ch.Stop()

	// All engine goroutines (dispatcher, workers, subscription pumps)
	// must be gone. Allow the runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d (leak after Stop)", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckerErrorAccounting forces re-check failures and verifies they
// are counted and retained per trace instead of silently dropped, and
// that a later successful re-check clears the trace's error.
func TestCheckerErrorAccounting(t *testing.T) {
	f := newFixture(t, false)
	// Cache off: the second check of the broken trace must actually
	// re-run the evaluator after it is fixed, not replay a cached result.
	reg, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	if _, err := reg.DeployEvaluator("flaky", "flaky control", evalFunc(func(g *provenance.Graph, appID string) *rules.Result {
		if failing.Load() {
			panic("evaluator exploded")
		}
		return &rules.Result{AppID: appID, Verdict: rules.Satisfied}
	}), "flaky"); err != nil {
		t.Fatal(err)
	}
	ch := NewCheckerOpts(reg, nil, CheckerOptions{Workers: 1})
	ch.Start()
	defer ch.Stop()

	f.addTrace(t, "A1", true, false)
	ch.WaitFor(f.st.Stats().Seq)
	st := ch.Stats()
	if st.Errors == 0 {
		t.Fatal("failed re-check not counted")
	}
	if st.LastError == "" || !strings.Contains(st.LastError, "exploded") {
		t.Fatalf("LastError = %q", st.LastError)
	}
	if msg := st.TraceErrors["A1"]; !strings.Contains(msg, "exploded") {
		t.Fatalf("TraceErrors[A1] = %q", msg)
	}

	// Fix the control; the next event on the trace clears its error.
	failing.Store(false)
	errsBefore := st.Errors
	f.addTrace(t, "A1b", true, true) // unrelated trace, checks fine
	req := &provenance.Node{ID: "A1-req2", Class: provenance.ClassData,
		Type: "jobRequisition", AppID: "A1",
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String("REQ-A1-2")})}
	if err := f.st.PutNode(req); err != nil {
		t.Fatal(err)
	}
	ch.WaitFor(f.st.Stats().Seq)
	st = ch.Stats()
	if st.Errors != errsBefore {
		t.Fatalf("Errors moved after fix: %d -> %d", errsBefore, st.Errors)
	}
	if _, stuck := st.TraceErrors["A1"]; stuck {
		t.Fatal("TraceErrors[A1] not cleared by successful re-check")
	}
	if ch.Latest() == nil {
		t.Fatal("Latest empty after successful re-check")
	}
}

// evalFunc adapts a function to the Evaluator interface for tests.
type evalFunc func(g *provenance.Graph, appID string) *rules.Result

func (f evalFunc) Evaluate(g *provenance.Graph, appID string) *rules.Result { return f(g, appID) }
func (f evalFunc) Text() string                                             { return "test evaluator" }
