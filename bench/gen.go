package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bom"
	"repro/internal/events"
	"repro/internal/workload"
)

// simTrace is one simulated process instance: its events in delivery
// order and the simulator's ground truth.
type simTrace struct {
	app    string
	events []events.AppEvent
	truth  workload.TraceTruth
}

// simulate plays n traces of a domain, fully visible (every unmanaged
// event captured), so a seeded violation must surface as a Violated
// verdict once the trace is complete.
func simulate(d *workload.Domain, seed int64, n int, violationRate float64) []simTrace {
	res := d.Simulate(workload.SimOptions{Seed: seed, Traces: n, ViolationRate: violationRate, Visibility: 1})
	var out []simTrace
	for _, ev := range res.Events {
		if len(out) == 0 || out[len(out)-1].app != ev.AppID {
			out = append(out, simTrace{app: ev.AppID, truth: res.Truth[ev.AppID]})
		}
		t := &out[len(out)-1]
		t.events = append(t.events, ev)
	}
	return out
}

// domains builds the three process domains in a fixed order.
func domains() ([]*workload.Domain, error) {
	var out []*workload.Domain
	for _, mk := range []func() (*workload.Domain, error){workload.Hiring, workload.Claims, workload.Procurement} {
		d, err := mk()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// scanControls derives a portfolio of scan-heavy controls from a domain's
// vocabulary: one per verbalized attribute or relation of each business
// concept. Each binds every record of its concept in the trace and reads
// that member, with a condition that always holds. Nothing in them can
// be hoisted into an equality prefilter, so between them their
// footprints cover every record type and every verbalized relation: any
// event's delta touches several of them and cannot be skipped.
func scanControls(d *workload.Domain) []workload.ControlSpec {
	var out []workload.ControlSpec
	for i, e := range d.Vocab.Entries() {
		if e.Kind == bom.MethodCall || e.Concept.Label == "control point" {
			continue
		}
		out = append(out, workload.ControlSpec{
			ID:   fmt.Sprintf("scan-%02d-%s", i, strings.ReplaceAll(e.Concept.Label+" "+e.Phrase, " ", "-")),
			Name: fmt.Sprintf("every %s records its %s, or not", e.Concept.Label, e.Phrase),
			Text: fmt.Sprintf("definitions\n  set 'the item' to a %s ;\nif\n  the %s of 'the item' exists\n  or the %s of 'the item' does not exist\nthen\n  the internal control is satisfied ;\nelse\n  the internal control is not satisfied ;\n",
				e.Concept.Label, e.Phrase, e.Phrase),
		})
	}
	return out
}

// feedBatch is one closed-loop write: a few consecutive events of one
// trace, bound for the system of domain dom.
type feedBatch struct {
	dom    int
	app    string
	events []events.AppEvent
}

// interleave feeds traces round-robin: open traces stay open at a time,
// each turn delivers the next 1..maxBatch events of one of them, and a
// finished trace is replaced by the next unplayed one — so every trace
// is long-lived relative to a single delta, and consecutive batches hit
// different traces. It stops after total events.
func interleave(rng *rand.Rand, dom int, traces []simTrace, open, maxBatch, total int) []feedBatch {
	type cursor struct{ t, at int }
	var live []cursor
	next := 0
	for len(live) < open && next < len(traces) {
		live = append(live, cursor{t: next})
		next++
	}
	var out []feedBatch
	emitted := 0
	for i := 0; len(live) > 0 && emitted < total; i++ {
		c := &live[i%len(live)]
		tr := traces[c.t]
		n := 1 + rng.Intn(maxBatch)
		if rest := len(tr.events) - c.at; n > rest {
			n = rest
		}
		out = append(out, feedBatch{dom: dom, app: tr.app, events: tr.events[c.at : c.at+n]})
		c.at += n
		emitted += n
		if c.at == len(tr.events) {
			if next < len(traces) {
				*c = cursor{t: next}
				next++
			} else {
				live = append(live[:i%len(live)], live[i%len(live)+1:]...)
			}
		}
	}
	return out
}
