package controls

import (
	"fmt"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
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

// outcomeText renders what a check answered: per control, its version,
// the trace version, verdict, bindings and notes.
func outcomeText(out []*Outcome) string {
	s := ""
	for _, o := range out {
		s += fmt.Sprintf("%s v%d @%d %v %v %q %q\n", o.ControlID, o.Version, o.TraceVersion,
			o.Result.Verdict, o.Result.Bindings, o.Result.Alerts, o.Result.Notes())
	}
	return s
}

// TestSealedVerdictCache drives the sealed part of the result cache on a
// durable store whose segment cache budget holds a few dozen entries:
// demoting every checked trace moves its entry into the LRU, a sweep of
// Checks over ten times what the budget holds keeps the charge within it,
// a repeat Check of a recent trace hits, an evicted trace is evaluated
// again, and every answer, hit or not, equals a DisableCache registry's.
// Forget and a write to a sealed trace take its entry out of the LRU.
func TestSealedVerdictCache(t *testing.T) {
	const budget = 8 << 10
	f := newFixtureOpts(t, false, store.Options{Dir: t.TempDir(), SegmentCacheBytes: budget})
	reg, err := NewRegistry(f.st, f.vocab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Registry{reg, ref} {
		if _, err := r.Deploy("gm-approval", "GM approval", gmControl); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Deploy("second", "second control", gmControl); err != nil {
			t.Fatal(err)
		}
	}
	const n = 400
	apps := make([]string, n)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%03d", i)
		f.addTrace(t, apps[i], i%3 != 0, i%2 == 0)
	}
	check := func(app string) (hit bool) {
		t.Helper()
		before := reg.CacheStats().Hits
		got, err := reg.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := outcomeText(got), outcomeText(want); g != w {
			t.Fatalf("%s: cached registry answered\n%s, the reference\n%s", app, g, w)
		}
		return reg.CacheStats().Hits == before+1
	}
	for _, app := range apps {
		check(app)
	}
	if st := reg.CacheStats(); st.Entries != n || st.SealedEntries != 0 || st.CapBytes != budget {
		t.Fatalf("every trace resident: %+v, want %d entries, none sealed, the %d-byte budget", st, n, budget)
	}

	if err := f.st.DemoteTraces(apps...); err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		check(app)
	}
	st := reg.CacheStats()
	if st.SealedBytes > budget || st.SealedEntries == 0 || st.Evictions == 0 || st.SealedEntries != st.Entries {
		t.Fatalf("after a sweep over %d demoted traces: %+v, want evictions and a charge within %d bytes", n, st, budget)
	}
	if st.SealedEntries*10 > n {
		t.Fatalf("the budget holds %d of %d sealed entries, want the sweep to cover ten times what it holds", st.SealedEntries, n)
	}
	last := apps[n-1]
	if !check(last) {
		t.Fatalf("a repeat check of %s, within the budget, missed", last)
	}
	// Recency decides: a check of the oldest sealed entry saves it from
	// the eviction that re-filing an evicted trace makes, which takes the
	// entry after it instead.
	reg.cacheMu.Lock()
	oldest, next := reg.cache.lru.prev.app, reg.cache.lru.prev.prev.app
	reg.cacheMu.Unlock()
	if !check(oldest) {
		t.Fatalf("a repeat check of %s, the oldest sealed entry, missed", oldest)
	}
	if check(apps[0]) {
		t.Fatalf("%s, evicted, was answered from the cache", apps[0])
	}
	reg.cacheMu.Lock()
	kept, gone := reg.cache.entries[oldest] != nil, reg.cache.entries[next] == nil
	reg.cacheMu.Unlock()
	if !kept || !gone {
		t.Fatalf("re-filing %s kept %s: %v and evicted %s: %v, want the recently checked one kept", apps[0], oldest, kept, next, gone)
	}
	if st := reg.CacheStats(); st.SealedBytes > budget {
		t.Fatalf("charge %d past the %d-byte budget", st.SealedBytes, budget)
	}

	before := reg.CacheStats()
	reg.Forget(last)
	if st := reg.CacheStats(); st.Entries != before.Entries-1 || st.SealedEntries != before.SealedEntries-1 || st.SealedBytes >= before.SealedBytes {
		t.Fatalf("Forget of sealed %s: %+v -> %+v", last, before, st)
	}
	// A write promotes apps[0]: its next check re-evaluates and files the
	// entry with the resident traces.
	check(apps[0])
	before = reg.CacheStats()
	if err := f.st.PutNode(&provenance.Node{ID: apps[0] + "-ap9", Class: provenance.ClassData, Type: "approvalStatus", AppID: apps[0],
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(false)})}); err != nil {
		t.Fatal(err)
	}
	if check(apps[0]) {
		t.Fatalf("a check after a write to %s hit", apps[0])
	}
	if st := reg.CacheStats(); st.Entries != before.Entries || st.SealedEntries != before.SealedEntries-1 {
		t.Fatalf("promoted %s: %+v -> %+v, want its entry out of the sealed part", apps[0], before, st)
	}
	if !check(apps[0]) {
		t.Fatalf("a repeat check of promoted %s missed", apps[0])
	}
}

// TestSealedVerdictCacheConcurrent checks every trace from four workers
// while demotions and promoting writes move traces between the tiers:
// the charge stays within the budget throughout, and the final answers
// equal a DisableCache registry's. Run it under -race.
func TestSealedVerdictCacheConcurrent(t *testing.T) {
	const budget = 8 << 10
	f := newFixtureOpts(t, false, store.Options{Dir: t.TempDir(), SegmentCacheBytes: budget})
	reg, err := NewRegistry(f.st, f.vocab, Options{CheckWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRegistry(f.st, f.vocab, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Registry{reg, ref} {
		if _, err := r.Deploy("gm-approval", "GM approval", gmControl); err != nil {
			t.Fatal(err)
		}
	}
	const n = 120
	apps := make([]string, n)
	for i := range apps {
		apps[i] = fmt.Sprintf("T%03d", i)
		f.addTrace(t, apps[i], i%3 != 0, i%2 == 0)
	}
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 6; round++ {
			if err := f.st.DemoteTraces(apps[round*n/6 : (round+1)*n/6]...); err != nil {
				done <- err
				return
			}
			app := apps[round*n/6]
			if err := f.st.PutNode(&provenance.Node{ID: app + "-ap9", Class: provenance.ClassData, Type: "approvalStatus", AppID: app,
				Attrs: provenance.AttrsOf(map[string]provenance.Value{"approved": provenance.Bool(false)})}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for stop := false; !stop; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			stop = true
		default:
		}
		if _, err := reg.CheckAll(); err != nil {
			t.Fatal(err)
		}
		if st := reg.CacheStats(); st.SealedBytes > budget {
			t.Fatalf("charge %d past the %d-byte budget: %+v", st.SealedBytes, budget, st)
		}
	}
	got, err := reg.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := outcomeText(got), outcomeText(want); g != w {
		t.Fatalf("cached registry answered\n%s\nthe reference\n%s", g, w)
	}
	if st := reg.CacheStats(); st.SealedEntries == 0 || st.Evictions == 0 {
		t.Fatalf("no sealed entries or evictions after demoting every trace: %+v", st)
	}
}
