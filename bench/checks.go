package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// quiesce waits until a continuous system has nothing left to do for
// the events ingested so far: the gateway has flushed, the correlator
// has stopped deriving edges and the checker has caught up. The
// correlator exposes no barrier, so stability is observed — the commit
// sequence and its run count must hold still across two polls — and then
// made certain: every touched trace is correlated once more (idempotent)
// and the checker drained again.
func quiesce(sys *core.System, touched []string) error {
	if sys.Gateway != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := sys.Gateway.WaitIdle(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("gateway did not go idle: %w", err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	stable := 0
	var lastSeq uint64
	lastRuns := -1
	for stable < 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("system did not quiesce within 60s")
		}
		seq := sys.Store.Stats().Seq
		sys.Checker.WaitFor(seq)
		runs := sys.Correlator.Stats().TracesProcessed
		if seq == lastSeq && runs == lastRuns {
			stable++
		} else {
			stable = 0
		}
		lastSeq, lastRuns = seq, runs
		time.Sleep(5 * time.Millisecond)
	}
	for _, app := range touched {
		if err := sys.CorrelateTrace(app); err != nil {
			return fmt.Errorf("correlate %s: %w", app, err)
		}
	}
	sys.Checker.WaitFor(sys.Store.Stats().Seq)
	return nil
}

// verdictLine is one (trace, control) verdict as the system holds it.
type verdictLine struct {
	app, control string
	verdict      rules.Verdict
}

// verification is the outcome of comparing a quiesced system's verdicts
// with an independent full re-evaluation.
type verification struct {
	traces, verdicts, wrong int
	lines                   []verdictLine
	firstWrong              string
}

// verifyVerdicts compares, for every named trace, the verdicts the
// system answers (Registry.Check: the cached product of whichever path —
// delta, partial, fallback, cold — last evaluated the trace) with a full
// re-evaluation of every control on the trace's current graph
// (Registry.CheckGraph: no cache, no delta, no binding reuse across
// calls). Any difference is a wrong verdict.
func verifyVerdicts(sys *core.System, apps []string) (verification, error) {
	var v verification
	for _, app := range apps {
		got, err := sys.Registry.Check(app)
		if err != nil {
			return v, fmt.Errorf("check %s: %w", app, err)
		}
		var full []*controls.Outcome
		err = sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
			var cerr error
			full, cerr = sys.Registry.CheckGraph(app, g)
			return cerr
		})
		if err != nil {
			return v, fmt.Errorf("re-evaluate %s: %w", app, err)
		}
		v.traces++
		if len(got) != len(full) {
			v.wrong++
			v.note("%s: %d verdicts held, %d re-evaluated", app, len(got), len(full))
			continue
		}
		for i := range got {
			v.verdicts++
			v.lines = append(v.lines, verdictLine{app, got[i].ControlID, got[i].Result.Verdict})
			if got[i].ControlID != full[i].ControlID || got[i].Result.Verdict != full[i].Result.Verdict {
				v.wrong++
				v.note("%s/%s: holds %v, full re-evaluation says %v", app, got[i].ControlID,
					got[i].Result.Verdict, full[i].Result.Verdict)
			}
		}
	}
	return v, nil
}

func (v *verification) note(format string, args ...any) {
	if v.firstWrong == "" {
		v.firstWrong = fmt.Sprintf(format, args...)
	}
}

// merge folds another system's verification (another shard, another
// domain) into v.
func (v *verification) merge(o verification) {
	v.traces += o.traces
	v.verdicts += o.verdicts
	v.wrong += o.wrong
	v.lines = append(v.lines, o.lines...)
	if v.firstWrong == "" {
		v.firstWrong = o.firstWrong
	}
}

// digest is an order-independent fingerprint of the verdicts: two runs
// that end in the same verdicts — staged or continuous, traced or not —
// print the same digest.
func (v *verification) digest() string { return digestLines(v.lines) }

func digestLines(vls []verdictLine) string {
	lines := make([]string, len(vls))
	for i, l := range vls {
		lines[i] = l.app + "|" + l.control + "|" + l.verdict.String()
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkBoard compares the dashboard's per-control verdict counts with
// the counts of the verified verdicts. It holds only for systems whose
// every trace was checked during this session (the board is not
// persisted), and returns the number of differing counters.
func checkBoard(sys *core.System, v verification) int {
	type counts struct{ total, sat, vio, ind, na int }
	want := map[string]*counts{}
	for _, l := range v.lines {
		c := want[l.control]
		if c == nil {
			c = &counts{}
			want[l.control] = c
		}
		c.total++
		switch l.verdict {
		case rules.Satisfied:
			c.sat++
		case rules.Violated:
			c.vio++
		case rules.Indeterminate:
			c.ind++
		case rules.NotApplicable:
			c.na++
		}
	}
	wrong := 0
	seen := 0
	for _, k := range sys.Board.Snapshot() {
		c := want[k.ControlID]
		if c == nil {
			wrong++
			continue
		}
		seen++
		if k.Total != c.total || k.Satisfied != c.sat || k.Violated != c.vio ||
			k.Indeterminate != c.ind || k.NotApplicable != c.na {
			wrong++
		}
	}
	if seen != len(want) {
		wrong += len(want) - seen
	}
	return wrong
}

// checkTruth compares the verdicts of completed traces with the
// simulator's ground truth: a seeded violation must be Violated under
// the control it targets, and an unseeded trace must be Violated under
// none of the domain's own controls. Traces not in complete are skipped.
func checkTruth(d *workload.Domain, v verification, truth map[string]workload.TraceTruth, complete map[string]bool) (wrong int, first string) {
	own := map[string]bool{}
	for _, cs := range d.Controls {
		own[cs.ID] = true
	}
	violated := map[string]map[string]bool{}
	for _, l := range v.lines {
		_, bare := tenant.Split(l.control)
		if l.verdict == rules.Violated && own[bare] {
			if violated[l.app] == nil {
				violated[l.app] = map[string]bool{}
			}
			violated[l.app][bare] = true
		}
	}
	for app, tr := range truth {
		if !complete[app] {
			continue
		}
		switch {
		case tr.Violation && !violated[app][tr.ControlID]:
			wrong++
			if first == "" {
				first = fmt.Sprintf("%s: seeded %s not flagged by %s", app, tr.Kind, tr.ControlID)
			}
		case !tr.Violation && len(violated[app]) > 0:
			wrong++
			if first == "" {
				first = fmt.Sprintf("%s: compliant trace flagged %v", app, violated[app])
			}
		}
	}
	return wrong, first
}

// checkReadable verifies that every acknowledged event is readable: the
// record ID each event carries must be among its trace's rows.
func checkReadable(sys *core.System, acked map[string][]string) (missing int, first string) {
	for app, ids := range acked {
		have := map[string]bool{}
		for _, r := range sys.Store.RowsForApp(app) {
			have[r.ID] = true
		}
		for _, id := range ids {
			if !have[id] {
				missing++
				if first == "" {
					first = fmt.Sprintf("%s: acked record %s not readable", app, id)
				}
			}
		}
	}
	return missing, first
}

// recordID is the row ID the pipeline gives an event: its payload's
// recordId, namespaced by the trace's tenant.
func recordID(app, payloadID string) string {
	if own := tenant.Owner(app); own != tenant.DefaultID {
		return tenant.Qualify(own, payloadID)
	}
	return payloadID
}
