package controls

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/xom"
)

// reviewFixture builds a store and vocabulary for the windowed-predicate
// tests: a submission whose review must be decided within 48 hours.
type reviewFixture struct {
	st    *store.Store
	vocab *bom.Vocabulary
}

func newReviewFixture(t testing.TB) *reviewFixture {
	t.Helper()
	m := provenance.NewModel("review")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "submission", Class: provenance.ClassData}))
	must(m.AddField("submission", &provenance.FieldDef{Name: "submittedAt", Kind: provenance.KindTime}))
	must(m.AddType(&provenance.TypeDef{Name: "review", Class: provenance.ClassData}))
	must(m.AddField("review", &provenance.FieldDef{Name: "decidedAt", Kind: provenance.KindTime}))
	must(m.AddRelation(&provenance.RelationDef{Name: "reviewOf", SourceType: "review", TargetType: "submission"}))
	om, err := xom.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := bom.Verbalize(om, bom.Options{
		MemberLabels: map[string]string{
			"submission.submittedAt":     "submission time",
			"review.decidedAt":           "decision time",
			"submission.reviewOfInverse": "review",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &reviewFixture{st: st, vocab: vocab}
}

const reviewDeadlineControl = `
definitions
  set 'the sub' to a submission ;
if
  the decision time of the review of 'the sub'
  is within 2 days of the submission time of 'the sub'
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "review decided outside the 48-hour window" ;
`

func (f *reviewFixture) submit(t testing.TB, app string, at time.Time) {
	t.Helper()
	if err := f.st.PutNode(&provenance.Node{ID: app + "-sub", Class: provenance.ClassData,
		Type: "submission", AppID: app,
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"submittedAt": provenance.Time(at)})}); err != nil {
		t.Fatal(err)
	}
}

// waitUntil polls cond with the engine quiesced-ish cadence tests need
// for counters updated outside the quiescence barrier.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTickerFakeClock drives the wall-clock ticker from an injected
// channel — a fake clock — and asserts the full expiry path: an anchored
// window with no target does nothing while the fake clock is inside the
// window, expires exactly once when it passes the deadline, and the
// expiry re-marks the trace so its (still indeterminate, now actionable)
// outcome re-surfaces to the result callback.
func TestTickerFakeClock(t *testing.T) {
	f := newReviewFixture(t)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("deadline", "review deadline", reviewDeadlineControl); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	ch := NewCheckerOpts(reg, recordFunc(func(out []*Outcome) {
		for _, o := range out {
			if o.Result.AppID == "A1" {
				delivered.Add(1)
			}
		}
	}), CheckerOptions{Workers: 2})
	ch.Start()
	defer ch.Stop()

	ticks := make(chan time.Time)
	if !ch.runTicker(ticks, nil) {
		t.Fatal("ticker failed to install")
	}
	if ch.runTicker(ticks, nil) {
		t.Fatal("second ticker installed alongside the first")
	}
	defer ch.StopTicker()

	base := time.Date(2011, 4, 11, 9, 0, 0, 0, time.UTC)
	f.submit(t, "A1", base)
	ch.WaitFor(f.st.Stats().Seq)
	waitUntil(t, "initial outcome", func() bool { return delivered.Load() >= 1 })
	if got := ch.Latest()[0].Result.Verdict; got != rules.Indeterminate {
		t.Fatalf("verdict before expiry = %v, want Indeterminate", got)
	}
	if st := ch.Stats(); st.WindowsOpen != 1 {
		t.Fatalf("windows open = %d, want 1 (stats %+v)", st.WindowsOpen, st)
	}
	before := delivered.Load()

	// Inside the window: the tick lands, nothing expires, nothing
	// re-surfaces.
	ticks <- base.Add(47 * time.Hour)
	waitUntil(t, "first tick", func() bool { return ch.Stats().TickerTicks == 1 })
	if st := ch.Stats(); st.TickerExpired != 0 || st.WindowsExpired != 0 {
		t.Fatalf("window expired inside its deadline: %+v", st)
	}

	// Past the deadline: the window expires and the trace re-checks.
	ticks <- base.Add(49 * time.Hour)
	waitUntil(t, "expiry tick", func() bool { return ch.Stats().TickerTicks == 2 })
	waitUntil(t, "re-surfaced outcome", func() bool { return delivered.Load() > before })
	st := ch.Stats()
	if st.TickerExpired != 1 || st.WindowsExpired != 1 || st.WindowsOpen != 0 {
		t.Fatalf("expiry not tracked: %+v", st)
	}

	// Expiry is edge-triggered: a later tick must not re-expire.
	ticks <- base.Add(90 * time.Hour)
	waitUntil(t, "third tick", func() bool { return ch.Stats().TickerTicks == 3 })
	if st := ch.Stats(); st.TickerExpired != 1 {
		t.Fatalf("window expired twice: %+v", st)
	}

	ch.StopTicker()
	ch.StopTicker() // idempotent
	// A fresh driver installs after a stop; exercise the wall-clock entry
	// point too.
	ch.StartTicker(time.Millisecond)
	waitUntil(t, "wall-clock ticks", func() bool { return ch.Stats().TickerTicks > 3 })
	ch.StopTicker()
	ch.StartTicker(0) // non-positive interval: a no-op, StopTicker still safe
	ch.StopTicker()
}

// TestCheckGraphAsOf evaluates deployed controls against detached
// graphs — the point-in-time audit path — and verifies the live result
// cache is left untouched.
func TestCheckGraphAsOf(t *testing.T) {
	f := newReviewFixture(t)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("deadline", "review deadline", reviewDeadlineControl); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CheckGraph("A1", nil); err == nil {
		t.Fatal("nil graph accepted")
	}

	base := time.Date(2011, 4, 11, 9, 0, 0, 0, time.UTC)
	mk := func(decided time.Time) *provenance.Graph {
		g := provenance.NewGraph()
		if err := g.AddNode(&provenance.Node{ID: "A1-sub", Class: provenance.ClassData,
			Type: "submission", AppID: "A1",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"submittedAt": provenance.Time(base)})}); err != nil {
			t.Fatal(err)
		}
		if decided.IsZero() {
			return g
		}
		if err := g.AddNode(&provenance.Node{ID: "A1-rev", Class: provenance.ClassData,
			Type: "review", AppID: "A1",
			Attrs: provenance.AttrsOf(map[string]provenance.Value{"decidedAt": provenance.Time(decided)})}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(&provenance.Edge{ID: "A1-e", Type: "reviewOf", AppID: "A1",
			Source: "A1-rev", Target: "A1-sub"}); err != nil {
			t.Fatal(err)
		}
		return g
	}

	for _, tc := range []struct {
		name    string
		decided time.Time
		want    rules.Verdict
	}{
		{"before the review", time.Time{}, rules.Indeterminate},
		{"decided in time", base.Add(20 * time.Hour), rules.Satisfied},
		{"decided late", base.Add(72 * time.Hour), rules.Violated},
	} {
		out, err := reg.CheckGraph("A1", mk(tc.decided))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(out) != 1 || out[0].ControlID != "deadline" {
			t.Fatalf("%s: outcomes = %+v", tc.name, out)
		}
		if got := out[0].Result.Verdict; got != tc.want {
			t.Fatalf("%s: verdict = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Historical evaluation must not pollute the live per-trace cache.
	if cs := reg.CacheStats(); cs.Entries != 0 {
		t.Fatalf("CheckGraph populated the live cache: %+v", cs)
	}
}
