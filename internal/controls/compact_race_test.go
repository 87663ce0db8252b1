package controls

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/store"
)

// TestCompactConcurrentWithChecker runs log compaction in a loop while
// parallel writers ingest traces and the continuous checker re-evaluates
// them from the change feed. Under -race this is the durability layer's
// liveness gate: Compact swaps the active log and rewrites the snapshot
// mid-stream, and none of that may lose a feed event, serve a stale
// cached verdict, or wedge WaitFor quiescence.
func TestCompactConcurrentWithChecker(t *testing.T) {
	f := newFixtureOpts(t, false, store.Options{Dir: t.TempDir()})
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	var verdicts sync.Map
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
	const perWriter = 25
	const compactions = 15
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				app := fmt.Sprintf("C%d-%02d", w, i)
				if err := putTrace(f, app, true, i%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			if err := f.st.Compact(); err != nil {
				t.Errorf("compaction %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	ch.WaitFor(f.st.Stats().Seq)

	// No lost events: the dispatcher consumed the entire change feed, and
	// quiescence left nothing queued.
	st := ch.Stats()
	if got, want := st.EventsSeen, f.st.Stats().Seq; got != want {
		t.Fatalf("EventsSeen = %d, want %d (full change feed)", got, want)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth after quiescence = %d", st.QueueDepth)
	}
	if st.Errors != 0 {
		t.Fatalf("engine errors: %d (last: %s)", st.Errors, st.LastError)
	}
	if got := f.st.Durability().Compactions; got != compactions {
		t.Fatalf("Compactions = %d, want %d", got, compactions)
	}

	// No stale cache hits: the engine's final verdict, the cached Check
	// answer, and a cache-free re-evaluation must all agree per trace.
	fresh, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			app := fmt.Sprintf("C%d-%02d", w, i)
			want := rules.Violated
			if i%2 == 0 {
				want = rules.Satisfied
			}
			got, ok := verdicts.Load(app)
			if !ok {
				t.Fatalf("trace %s never checked", app)
			}
			if got != want {
				t.Fatalf("trace %s engine verdict = %v, want %v", app, got, want)
			}
			cached, err := reg.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			uncached, err := fresh.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			if cached[0].Result.Verdict != want || uncached[0].Result.Verdict != want {
				t.Fatalf("trace %s: cached=%v fresh=%v, want %v",
					app, cached[0].Result.Verdict, uncached[0].Result.Verdict, want)
			}
		}
	}
}
