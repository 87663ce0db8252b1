package rules

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/provenance"
)

// maxPaperControlAllocs is what one evaluation of the paper control costs
// against a frozen snapshot with a warm binding cache: the Result, its
// bindings and their ID array, and the two navigations the condition
// follows. Evaluation state itself (variable slots, the navigation memo)
// is pooled and must not show up here.
const maxPaperControlAllocs = 5

func TestEvaluatePaperControlAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	g := provenance.NewGraph()
	buildTrace(t, g, "A1", traceOpts{positionType: "new", approval: true, approved: true,
		approvalEdge: true, candidates: true, submitter: true})
	snap := g.Snapshot()
	c := compileOrDie(t, paperControl)
	cache := NewBindingCache(nil)
	if res := c.EvaluateWith(snap, "A1", cache); res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, notes = %v", res.Verdict, res.Notes)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.EvaluateWith(snap, "A1", cache)
	})
	if allocs > maxPaperControlAllocs {
		t.Fatalf("EvaluateWith allocates %.1f objects per run, ceiling %d", allocs, maxPaperControlAllocs)
	}
}

// poolControl reaches every part of a Result: several node-typed
// bindings (one through a relation), a value-typed definition, alerts on
// the else branch and notes when an attribute or record is missing.
const poolControl = `
definitions
  set 'r' to a job requisition ;
  set 'the hiring manager' to the submitter of 'r' ;
  set 'the approvals' to the approval of 'r' ;
  set 'the submitter name' to the name of the submitter of 'r' ;
if
  the position type of 'r' is "new"
  and the approved flag of 'the approvals' is true
  and the candidate list of 'r' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "requisition is missing approval or candidates" ;
`

func cloneResult(r *Result) *Result {
	c := *r
	c.Alerts = slices.Clone(r.Alerts)
	c.Notes = slices.Clone(r.Notes)
	c.Bindings = slices.Clone(r.Bindings)
	for i := range c.Bindings {
		c.Bindings[i].IDs = slices.Clone(c.Bindings[i].IDs)
	}
	return &c
}

// TestPooledEvaluationResultsStayPut runs many goroutines through one
// compiled control on different traces, then keeps evaluating, and checks
// that every Result handed out earlier still reads exactly as it did: no
// verdict, alert, note or binding may alias an evaluation context the
// pool has since given to someone else. Run it under -race.
func TestPooledEvaluationResultsStayPut(t *testing.T) {
	shapes := []traceOpts{
		{positionType: "new", approval: true, approved: true, approvalEdge: true, candidates: true, submitter: true},
		{positionType: "new", candidates: true, submitter: true},
		{approval: true, approved: true, approvalEdge: true, candidates: true, submitter: true},
		{noReq: true, approval: true, approved: true},
		{positionType: "existing", approval: true, approvalEdge: true},
	}
	g := provenance.NewGraph()
	const traces = 10
	apps := make([]string, traces)
	for i := range apps {
		apps[i] = fmt.Sprintf("A%02d", i)
		buildTrace(t, g, apps[i], shapes[i%len(shapes)])
	}
	snap := g.Snapshot()
	c := compileOrDie(t, poolControl)

	first := make([]*Result, traces)
	want := make([]*Result, traces)
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first[i] = c.EvaluateWith(snap, apps[i], NewBindingCache(nil))
			want[i] = cloneResult(first[i])
		}(i)
	}
	wg.Wait()

	seen := map[Verdict]bool{}
	for _, r := range want {
		seen[r.Verdict] = true
	}
	for _, v := range []Verdict{Satisfied, Violated, Indeterminate, NotApplicable} {
		if !seen[v] {
			t.Fatalf("no trace evaluated %v; the shapes no longer cover every verdict", v)
		}
	}

	const later = 1000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A binding cache belongs to one trace version, so each
			// trace gets its own.
			caches := make([]*BindingCache, traces)
			for k := 0; k < later/4; k++ {
				i := (w + k) % traces
				if caches[i] == nil {
					caches[i] = NewBindingCache(nil)
				}
				if k%2 == 0 {
					c.EvaluateWith(snap, apps[i], caches[i])
				} else {
					c.Evaluate(snap, apps[i])
				}
			}
		}(w)
	}
	wg.Wait()

	for i, r := range first {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("%s: result changed after later evaluations\n got %+v\nwant %+v", apps[i], r, want[i])
		}
		if again := c.Evaluate(snap, apps[i]); !reflect.DeepEqual(again, want[i]) {
			t.Errorf("%s: re-evaluation differs\n got %+v\nwant %+v", apps[i], again, want[i])
		}
	}
}
