package rules

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bal"
	"repro/internal/provenance"
)

// TestPlanSummaries checks the binder planner's access-path extraction:
// unconstrained binders are type-index probes, attribute equalities are
// hoisted into prefilters ahead of the residual where, and only
// self-contained where clauses are marked shareable.
func TestPlanSummaries(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		contains []string
		absent   []string
	}{
		{
			name: "unconstrained binder",
			src: `definitions set 'r' to a job requisition ;
			      if 'r' exists then the internal control is satisfied ;`,
			contains: []string{"r: TypeIndex(jobRequisition)", "[shareable]"},
			absent:   []string{"Prefilter", "Where"},
		},
		{
			name: "equality hoisted as prefilter",
			src: `definitions set 'r' to a job requisition where the position type of this is "new" ;
			      if 'r' exists then the internal control is satisfied ;`,
			contains: []string{"TypeIndex(jobRequisition)", "Prefilter(position type", "Where", "[shareable]"},
		},
		{
			name: "reversed operand order still hoisted",
			src: `definitions set 'r' to a job requisition where "new" is the position type of this ;
			      if 'r' exists then the internal control is satisfied ;`,
			contains: []string{"Prefilter(position type"},
		},
		{
			name: "disjunction is not hoisted",
			src: `definitions set 'r' to a job requisition where the position type of this is "new" or the requisition ID of this is "REQ-X" ;
			      if 'r' exists then the internal control is satisfied ;`,
			contains: []string{"Where", "[shareable]"},
			absent:   []string{"Prefilter"},
		},
		{
			name: "var-referencing where is unshareable",
			src: `definitions
			        set 'p' to a person ;
			        set 'r' to a job requisition where the requisition ID of this is the name of 'p' ;
			      if 'r' exists then the internal control is satisfied ;`,
			contains: []string{"p: TypeIndex(person) [shareable]", "r: TypeIndex(jobRequisition)"},
			absent:   []string{"r: TypeIndex(jobRequisition) -> Where [shareable]"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compileOrDie(t, tc.src)
			plans := strings.Join(c.PlanSummaries(), "\n")
			for _, want := range tc.contains {
				if !strings.Contains(plans, want) {
					t.Errorf("plans missing %q:\n%s", want, plans)
				}
			}
			for _, bad := range tc.absent {
				if strings.Contains(plans, bad) {
					t.Errorf("plans unexpectedly contain %q:\n%s", bad, plans)
				}
			}
		})
	}
}

// TestPrefilterPreservesThreeValuedSemantics pins the prefilter's reject
// rule: only a present-and-unequal attribute skips the where closure. A
// candidate missing the attribute must reach the full three-valued where
// so the unknown-operand diagnostic survives.
func TestPrefilterPreservesThreeValuedSemantics(t *testing.T) {
	src := `definitions set 'r' to a job requisition where the position type of this is "new" ;
	        if 'r' exists then the internal control is satisfied ;`
	c := compileOrDie(t, src)

	g := provenance.NewGraph()
	// A1 carries the attribute with the wrong value: prefilter rejects.
	buildTrace(t, g, "A1", traceOpts{positionType: "existing"})
	// A2 omits the attribute: where must run and note the unknown.
	buildTrace(t, g, "A2", traceOpts{})

	if res := c.Evaluate(g, "A1"); res.Verdict != NotApplicable {
		t.Fatalf("A1 verdict = %v, want NotApplicable", res.Verdict)
	}
	res := c.Evaluate(g, "A2")
	if res.Verdict != NotApplicable {
		t.Fatalf("A2 verdict = %v, want NotApplicable", res.Verdict)
	}
	found := false
	for _, n := range res.Notes() {
		if strings.Contains(n, "position") || strings.Contains(n, "unknown") {
			found = true
		}
	}
	if !found {
		t.Fatalf("A2 notes lost the unknown-operand diagnostic: %q", res.Notes())
	}
}

// TestBindingCacheReplaysNotes checks that a cache hit returns the same
// candidate set and replays the notes recorded at the miss.
func TestBindingCacheReplaysNotes(t *testing.T) {
	src := `definitions set 'r' to a job requisition where the position type of this is "new" ;
	        if 'r' exists then the internal control is satisfied ;`
	c := compileOrDie(t, src)

	g := provenance.NewGraph()
	buildTrace(t, g, "A2", traceOpts{}) // attribute missing -> note emitted

	var counters BindingCounters
	cache := NewBindingCache(&counters)
	first := c.EvaluateWith(g, "A2", cache)
	second := c.EvaluateWith(g, "A2", cache)
	if counters.Misses.Load() == 0 || counters.Hits.Load() == 0 {
		t.Fatalf("counters = %d hits / %d misses, want both > 0",
			counters.Hits.Load(), counters.Misses.Load())
	}
	if first.Verdict != second.Verdict {
		t.Fatalf("verdict changed across cache hit: %v vs %v", first.Verdict, second.Verdict)
	}
	// The where clause's notes come back on the hit, ahead of the shared
	// note of a binder that matched nothing, and read as they do with no
	// memo at all.
	want := []string{
		fmt.Sprintf("%s: %q of %s was not captured", at(1, 48), "position type", "A2-req"),
		fmt.Sprintf("%s: operand of %q is unknown", at(1, 74), bal.OpEq.String()),
		fmt.Sprintf("no %s in trace %s for '%s'", "jobRequisition", "A2", "r"),
	}
	for name, res := range map[string]*Result{"miss": first, "hit": second, "no cache": c.Evaluate(g, "A2")} {
		if got := res.Notes(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: notes\n got %q\nwant %q", name, got, want)
		}
	}
	// Appending to the shared note copied it: a trace with no requisition
	// still reads that note alone.
	if got := c.Evaluate(provenance.NewGraph(), "A3").Notes(); !reflect.DeepEqual(got, []string{"no jobRequisition in trace A3 for 'r'"}) {
		t.Errorf("empty trace notes = %q", got)
	}
}
