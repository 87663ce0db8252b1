package core_test

import (
	"bytes"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/workload"
)

// quiesce waits until the continuous checker has consumed the change feed
// up to the store's current sequence and has nothing queued, failing the
// test after d.
func quiesce(t *testing.T, sys *core.System, d time.Duration) {
	t.Helper()
	seq := sys.Store.Stats().Seq
	done := make(chan struct{})
	go func() {
		sys.Checker.WaitFor(seq)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("checker did not reach feed sequence %d within %v", seq, d)
	}
}

// continuousSystem starts a continuous hiring system holding n simulated
// traces, every one of them checked.
func continuousSystem(t *testing.T, n int) (*core.System, *workload.SimResult) {
	t.Helper()
	return continuousSystemWith(t, n, core.Config{})
}

// continuousSystemWith is continuousSystem on top of cfg.
func continuousSystemWith(t *testing.T, n int, cfg core.Config) (*core.System, *workload.SimResult) {
	t.Helper()
	d := hiring(t)
	cfg.Continuous, cfg.Workers = true, 2
	sys, err := core.New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	res := d.Simulate(workload.SimOptions{Seed: 5, Traces: n, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	quiesce(t, sys, 10*time.Second)
	return sys, res
}

// traceIDs lists the simulated traces in order.
func traceIDs(res *workload.SimResult) []string {
	ids := make([]string, 0, len(res.Truth))
	for app := range res.Truth {
		ids = append(ids, app)
	}
	sort.Strings(ids)
	return ids
}

// verdicts sums the board's KPI totals: one per (control, checked trace).
func verdicts(sys *core.System) int {
	n := 0
	for _, k := range sys.Board.Snapshot() {
		n += k.Total
	}
	return n
}

// TestDroppedTraceCountedAgainOnReturn: a trace handed off and then handed
// back with the same records lands on the version it left at. The drop
// forgets its result-cache entry along with its board row, so the
// returning trace is checked afresh and counted again.
func TestDroppedTraceCountedAgainOnReturn(t *testing.T) {
	sys, res := continuousSystem(t, 3)
	controls := len(sys.Domain.Controls)
	if got := verdicts(sys); got != 3*controls {
		t.Fatalf("board holds %d verdicts, want %d", got, 3*controls)
	}
	app := traceIDs(res)[0]
	var seg bytes.Buffer
	if _, err := sys.Store.ExportTraces(&seg, []string{app}); err != nil {
		t.Fatal(err)
	}
	if err := sys.DropTraces(app); err != nil {
		t.Fatal(err)
	}
	// The import's writes queue behind the drop's forget.
	if _, _, err := sys.Store.ImportSegment(&seg); err != nil {
		t.Fatal(err)
	}
	quiesce(t, sys, 5*time.Second)
	if got := verdicts(sys); got != 3*controls {
		t.Fatalf("after the trace came back the board holds %d verdicts, want %d", got, 3*controls)
	}
}

// TestDropForgetsWithCheckerStopped: without a running checker nobody
// reads the drop off the feed, so DropTraces forgets the trace itself.
func TestDropForgetsWithCheckerStopped(t *testing.T) {
	d := hiring(t)
	sys, err := core.New(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 5, Traces: 2, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CheckAll(); err != nil {
		t.Fatal(err)
	}
	if err := sys.DropTraces(traceIDs(res)[0]); err != nil {
		t.Fatal(err)
	}
	if got, want := verdicts(sys), len(d.Controls); got != want {
		t.Fatalf("board holds %d verdicts, want %d", got, want)
	}
	if got := sys.Registry.CacheStats().Entries; got != 1 {
		t.Fatalf("result cache holds %d traces, want 1", got)
	}
}

// TestWaitForReturnsAfterDrop: a drop advances the store's sequence and
// reaches the change feed, so the checker's quiescence barrier at that
// sequence returns without waiting for another commit.
func TestWaitForReturnsAfterDrop(t *testing.T) {
	sys, res := continuousSystem(t, 2)
	if err := sys.DropTraces(traceIDs(res)[0]); err != nil {
		t.Fatal(err)
	}
	quiesce(t, sys, 2*time.Second)
}

// blockingControl is a control that, once armed, blocks its next
// evaluation of one trace until released.
type blockingControl struct {
	app     string
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *blockingControl) Evaluate(_ *provenance.Graph, appID string) *rules.Result {
	if appID == b.app && b.armed.CompareAndSwap(true, false) {
		b.entered <- struct{}{}
		<-b.release
	}
	return &rules.Result{AppID: appID, Verdict: rules.Satisfied}
}

func (b *blockingControl) Text() string { return "blocks when armed" }

// TestDropWaitsForInFlightCheck: a trace dropped while its check runs is
// forgotten after that check delivers, not before, so the late verdicts
// do not bring the dropped trace back onto the board. With -materialize
// the late check commits no control-point nodes either, so the trace does
// not come back into the store holding only those.
func TestDropWaitsForInFlightCheck(t *testing.T) {
	for name, cfg := range map[string]core.Config{"plain": {}, "materialize": {Materialize: true}} {
		t.Run(name, func(t *testing.T) {
			sys, res := continuousSystemWith(t, 1, cfg)
			app := traceIDs(res)[0]
			block := &blockingControl{app: app, entered: make(chan struct{}, 1), release: make(chan struct{})}
			if _, err := sys.Registry.DeployEvaluator("block", "blocks when armed", block, ""); err != nil {
				t.Fatal(err)
			}
			block.armed.Store(true)
			if err := sys.Ingest([]events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: app,
				Timestamp: time.Unix(1700000100, 0),
				Payload:   map[string]string{"recordId": app + "-late", "name": "L", "email": "l@x"}}}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-block.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the write was never checked")
			}
			if err := sys.DropTraces(app); err != nil {
				t.Fatal(err)
			}
			close(block.release)
			quiesce(t, sys, 5*time.Second)
			if got := verdicts(sys); got != 0 {
				t.Fatalf("board holds %d verdicts for the dropped trace, want 0", got)
			}
			if got := sys.Registry.CacheStats().Entries; got != 0 {
				t.Fatalf("result cache holds %d traces, want 0", got)
			}
			if ids := sys.Store.AppIDs(); len(ids) != 0 {
				t.Fatalf("store holds traces %v after the drop, want none", ids)
			}
		})
	}
}
