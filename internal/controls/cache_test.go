package controls

import (
	"fmt"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rules"
)

// TestResultCacheTable drives the incremental result cache through every
// invalidation path: a re-check is skipped while the trace version is
// unchanged, and re-run after any node write, node update, edge write, or
// control deployment change.
func TestResultCacheTable(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)  // satisfied
	f.addTrace(t, "A2", true, false) // violated

	addNode := func(id, app string) func(*testing.T) {
		return func(t *testing.T) {
			ap := &provenance.Node{ID: id, Class: provenance.ClassData,
				Type: "approvalStatus", AppID: app,
				Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(false)})}
			if err := f.st.PutNode(ap); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps := []struct {
		name    string
		mutate  func(*testing.T) // runs before the check; nil = no change
		wantHit bool
	}{
		{"first check misses", nil, false},
		{"unchanged trace hits", nil, true},
		{"still unchanged, hits again", nil, true},
		{"node write to the trace re-runs", addNode("A1-ap2", "A1"), false},
		{"then caches again", nil, true},
		{"node update to the trace re-runs", func(t *testing.T) {
			ap := &provenance.Node{ID: "A1-ap2", Class: provenance.ClassData,
				Type: "approvalStatus", AppID: "A1",
				Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(true)})}
			if err := f.st.UpdateNode(ap); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"edge write to the trace re-runs", func(t *testing.T) {
			e := &provenance.Edge{ID: "A1-e2", Type: "approvalOf", AppID: "A1",
				Source: "A1-ap2", Target: "A1-req"}
			if err := f.st.PutEdge(e); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"write to another trace still hits", addNode("A2-ap2", "A2"), true},
		{"redeploying a control re-runs", func(t *testing.T) {
			if _, err := reg.Deploy("gm-approval", "GM approval v2", gmControl); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"deploying another control re-runs", func(t *testing.T) {
			if _, err := reg.Deploy("aux", "aux", gmControl); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"removing a control re-runs", func(t *testing.T) {
			if err := reg.Remove("aux"); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"stable again afterwards", nil, true},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			if step.mutate != nil {
				step.mutate(t)
			}
			before := reg.CacheStats()
			out, err := reg.Check("A1")
			if err != nil {
				t.Fatal(err)
			}
			after := reg.CacheStats()
			gotHit := after.Hits == before.Hits+1
			gotMiss := after.Misses == before.Misses+1
			if gotHit == gotMiss {
				t.Fatalf("cache counters moved oddly: %+v -> %+v", before, after)
			}
			if gotHit != step.wantHit {
				t.Fatalf("hit = %v, want %v (%+v -> %+v)", gotHit, step.wantHit, before, after)
			}
			// Hit or miss, the answer must be the truth.
			if len(out) == 0 || out[0].Result.Verdict != rules.Satisfied {
				t.Fatalf("outcomes = %+v", out)
			}
		})
	}
}

// TestResultCacheSkipsUnknownTraces: a check of a trace the store does not
// hold caches nothing, so checks of made-up trace IDs cannot grow the
// cache; a real trace's second check still hits.
func TestResultCacheSkipsUnknownTraces(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)
	for i := 0; i < 100; i++ {
		if _, err := reg.Check(fmt.Sprintf("nope-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := reg.CacheStats(); st.Entries != 0 {
		t.Fatalf("100 checks of unknown traces left %d cache entries", st.Entries)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Check("A1"); err != nil {
			t.Fatal(err)
		}
	}
	if st := reg.CacheStats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("a real trace checked twice: %+v, want 1 entry and 1 hit", st)
	}
}

// TestResultCacheDisabled checks the ablation switch: with DisableCache
// every check re-evaluates and the hit counter never moves.
func TestResultCacheDisabled(t *testing.T) {
	f := newFixture(t, false)
	reg, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
		t.Fatal(err)
	}
	f.addTrace(t, "A1", true, true)
	for i := 0; i < 3; i++ {
		if _, err := reg.Check("A1"); err != nil {
			t.Fatal(err)
		}
	}
	if st := reg.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("cache active despite DisableCache: %+v", st)
	}
}

// TestResultCacheAgreesWithFresh compares cached answers against a
// cache-free registry over the same store for a spread of traces.
func TestResultCacheAgreesWithFresh(t *testing.T) {
	f := newFixture(t, false)
	cachedReg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	freshReg, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []*Registry{cachedReg, freshReg} {
		if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		f.addTrace(t, fmt.Sprintf("T%02d", i), i%3 != 0, i%2 == 0)
	}
	for round := 0; round < 2; round++ { // second round exercises hits
		for i := 0; i < 12; i++ {
			app := fmt.Sprintf("T%02d", i)
			got, err := cachedReg.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshReg.Check(app)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || got[0].Result.Verdict != want[0].Result.Verdict {
				t.Fatalf("round %d trace %s: cached %v, fresh %v", round, app, got[0].Result.Verdict, want[0].Result.Verdict)
			}
		}
	}
	if st := cachedReg.CacheStats(); st.Hits == 0 {
		t.Fatalf("second round produced no cache hits: %+v", st)
	}
}

// TestCheckAllParallelMatchesSerial runs the fan-out CheckAll against the
// serial path on the same store and requires identical ordered outcomes.
func TestCheckAllParallelMatchesSerial(t *testing.T) {
	f := newFixture(t, false)
	serial, err := NewRegistry(f.st, f.vocab, Options{CheckWorkers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRegistry(f.st, f.vocab, Options{CheckWorkers: 4, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []*Registry{serial, par} {
		if _, err := reg.Deploy("gm-approval", "GM approval", gmControl); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Deploy("second", "second control", gmControl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		f.addTrace(t, fmt.Sprintf("T%02d", i), i%2 == 0, i%3 == 0)
	}
	want, err := serial.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel returned %d outcomes, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ControlID != want[i].ControlID ||
			got[i].Result.AppID != want[i].Result.AppID ||
			got[i].Result.Verdict != want[i].Result.Verdict {
			t.Fatalf("outcome %d: parallel (%s,%s,%v), serial (%s,%s,%v)", i,
				got[i].ControlID, got[i].Result.AppID, got[i].Result.Verdict,
				want[i].ControlID, want[i].Result.AppID, want[i].Result.Verdict)
		}
	}
}
