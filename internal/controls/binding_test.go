package controls

import (
	"testing"

	"repro/internal/provenance"
	"repro/internal/rules"
)

// TestBindingReuseAcrossControls checks cross-control binding reuse: N
// controls binding the same (concept, where) fingerprint on one trace
// version compute the candidate set once, and a write to the trace bumps
// the version and invalidates the shared set together with the result
// cache.
func TestBindingReuseAcrossControls(t *testing.T) {
	f := newFixture(t, false)
	// The result cache is disabled so every Check reaches the evaluator
	// and the binding cache's own hit/miss accounting is observable.
	reg, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	const nControls = 3
	for _, id := range []string{"c1", "c2", "c3"} {
		if _, err := reg.Deploy(id, "GM approval "+id, gmControl); err != nil {
			t.Fatal(err)
		}
	}
	f.addTrace(t, "A1", true, true)

	check := func() {
		t.Helper()
		out, err := reg.Check("A1")
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != nControls {
			t.Fatalf("outcomes = %d, want %d", len(out), nControls)
		}
	}

	check()
	st := reg.BindingStats()
	// gmControl has one shareable binder; the first control misses, the
	// other two replay the shared candidate set.
	if st.Misses != 1 || st.Hits != nControls-1 {
		t.Fatalf("first check: %d hits / %d misses, want %d / 1", st.Hits, st.Misses, nControls-1)
	}

	// Same trace version: the cache survives and every binder hits.
	check()
	st = reg.BindingStats()
	if st.Misses != 1 || st.Hits != 2*nControls-1 {
		t.Fatalf("second check: %d hits / %d misses, want %d / 1", st.Hits, st.Misses, 2*nControls-1)
	}

	// A write bumps the trace version: the shared set is recomputed.
	if err := f.st.PutNode(&provenance.Node{ID: "A1-extra", Class: provenance.ClassData,
		Type: "approvalStatus", AppID: "A1",
		Attrs: map[string]provenance.Value{"approved": provenance.Bool(true)}}); err != nil {
		t.Fatal(err)
	}
	check()
	st = reg.BindingStats()
	if st.Misses != 2 || st.Hits != 3*nControls-2 {
		t.Fatalf("post-write check: %d hits / %d misses, want %d / 2", st.Hits, st.Misses, 3*nControls-2)
	}
	if st.Traces != 1 || st.Entries == 0 {
		t.Fatalf("stats = %+v, want one live trace cache with entries", st)
	}
	if r := st.ReuseRatio(); r <= 0.5 {
		t.Fatalf("reuse ratio = %.3f, want > 0.5", r)
	}
}

// TestBindingReuseAgreesWithFresh compares verdicts from the registry's
// shared binding cache against a standalone evaluation of the same rule
// (no cache at all) across traces and repeated rounds.
func TestBindingReuseAgreesWithFresh(t *testing.T) {
	f := newFixture(t, false)
	shared, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Deploy("c1", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Deploy("c2", "GM approval again", gmControl); err != nil {
		t.Fatal(err)
	}
	fresh, err := rules.Compile(gmControl, f.vocab)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"T0", "T1", "T2", "T3"}
	for i, app := range apps {
		f.addTrace(t, app, i%2 == 0, i%3 == 0)
	}
	for round := 0; round < 2; round++ {
		for _, app := range apps {
			got, err := shared.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			var want rules.Verdict
			f.st.View(func(g *provenance.Graph) error {
				want = fresh.Evaluate(g, app).Verdict
				return nil
			})
			if len(got) != 2 {
				t.Fatalf("trace %s: %d outcomes, want 2", app, len(got))
			}
			for _, o := range got {
				if o.Result.Verdict != want {
					t.Fatalf("round %d trace %s control %s: shared %v, fresh %v", round, app,
						o.ControlID, o.Result.Verdict, want)
				}
			}
		}
	}
	if st := shared.BindingStats(); st.Hits == 0 {
		t.Fatalf("no binding reuse observed: %+v", st)
	}
}
