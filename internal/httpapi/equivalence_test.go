package httpapi

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// traceState is everything the property compares about one trace: its
// nodes with all attributes (enrichment included), its edges as (type,
// source, target) and every control's verdict.
type traceState struct {
	nodes, edges, verdicts []string
}

func (ts traceState) String() string {
	return fmt.Sprintf("nodes:\n  %s\nedges:\n  %s\nverdicts:\n  %s",
		strings.Join(ts.nodes, "\n  "), strings.Join(ts.edges, "\n  "), strings.Join(ts.verdicts, "\n  "))
}

func readTrace(t *testing.T, sys *core.System, app string) traceState {
	t.Helper()
	var ts traceState
	err := sys.Store.ViewTrace(app, func(g *provenance.Graph, _ uint64) error {
		for _, n := range g.Nodes(provenance.NodeFilter{AppID: app}) {
			ts.nodes = append(ts.nodes, n.String())
		}
		for _, e := range g.AllEdges(provenance.EdgeFilter{AppID: app}) {
			ts.edges = append(ts.edges, e.Type+" "+e.Source+" -> "+e.Target)
		}
		out, err := sys.Registry.CheckGraph(app, g)
		for _, o := range out {
			ts.verdicts = append(ts.verdicts, o.ControlID+"="+o.Result.Verdict.String())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ts.edges)
	return ts
}

// TestIngestEquivalenceProperty: however a trace's events are split into
// batches, interleaved with other traces, redelivered and spread over the
// three ingest doors — System.Ingest, the async gateway, POST
// /events?sync=1 — every trace ends with exactly the edges, enriched
// attributes and verdicts of the reference: a fresh store, every node
// put bare, ONE correlation pass, a full check. And the repair path then
// finds nothing to add. Per-trace delivery order is kept (a gateway chunk
// is awaited before the trace's next one), as a recorder client keeps it;
// redeliveries of chunks already delivered race the trace's later chunks
// from their own goroutines. Run under -race in CI.
func TestIngestEquivalenceProperty(t *testing.T) {
	domains := map[string]func() (*workload.Domain, error){
		"hiring": workload.Hiring, "claims": workload.Claims, "procurement": workload.Procurement,
	}
	for name, load := range domains {
		for seed := int64(1); seed <= 3; seed++ {
			name, load, seed := name, load, seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				d, err := load()
				if err != nil {
					t.Fatal(err)
				}
				res := d.Simulate(workload.SimOptions{Seed: seed, Traces: 18, ViolationRate: 0.4, Visibility: 0.9})
				equivalence(t, d, res, seed)
			})
		}
	}
}

func equivalence(t *testing.T, d *workload.Domain, res *workload.SimResult, seed int64) {
	// Reference: nodes only (a pipeline without a correlator), then one
	// explicit correlation pass over the finished traces.
	ref, err := core.New(d, core.Config{DisableAsyncIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	bare, err := events.NewPipeline(ref.Store, nil, d.Mappings...)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.IngestAll(res.Events); err != nil {
		t.Fatal(err)
	}
	if ref.Store.Stats().Edges != 0 {
		t.Fatal("the bare pipeline derived edges")
	}
	if err := ref.CorrelateAll(); err != nil {
		t.Fatal(err)
	}

	sys, err := core.New(d, core.Config{Continuous: true, IngestShards: 3, IngestMaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := NewServer(sys, true)

	// deliver sends one chunk through door 0, 1 or 2 and returns once it
	// is committed. Redeliveries fail as duplicates on the two unkeyed
	// doors (by contract) and must succeed on the keyed one.
	deliver := func(door int, key string, chunk []events.AppEvent, again bool) error {
		switch door {
		case 0:
			if err := sys.Ingest(chunk); err != nil && !again {
				return fmt.Errorf("Ingest: %v", err)
			}
		case 1:
			rec, body := do(t, srv, http.MethodPost, "/events?sync=1", chunk)
			if rec.Code != http.StatusOK && !again {
				return fmt.Errorf("?sync=1: %d %s", rec.Code, body)
			}
		default:
			st, err := sys.Gateway.Offer(key, chunk)
			if err != nil {
				return fmt.Errorf("Offer: %v", err)
			}
			for deadline := time.Now().Add(10 * time.Second); st.State != "applied"; {
				if time.Now().After(deadline) {
					return fmt.Errorf("batch %s never applied", key)
				}
				time.Sleep(200 * time.Microsecond)
				st, _ = sys.Gateway.Ack(st.Token)
			}
			if len(st.EventErrors) > 0 || st.Error != "" {
				return fmt.Errorf("gateway batch %s: %v %s", key, st.EventErrors, st.Error)
			}
		}
		return nil
	}

	// Split every trace into consecutive chunks; deal traces to workers.
	rng := rand.New(rand.NewSource(seed))
	byApp := map[string][]events.AppEvent{}
	var apps []string
	for _, ev := range res.Events {
		if byApp[ev.AppID] == nil {
			apps = append(apps, ev.AppID)
		}
		byApp[ev.AppID] = append(byApp[ev.AppID], ev)
	}
	type chunk struct {
		key  string
		evs  []events.AppEvent
		door int
	}
	const workers = 4
	plans := make([][][]chunk, workers) // worker -> its traces -> chunks in order
	for i, app := range apps {
		var cs []chunk
		for evs := byApp[app]; len(evs) > 0; {
			n := 1 + rng.Intn(4)
			if n > len(evs) {
				n = len(evs)
			}
			cs = append(cs, chunk{fmt.Sprintf("%s-c%d", app, len(cs)), evs[:n], rng.Intn(3)})
			evs = evs[n:]
		}
		plans[i%workers] = append(plans[i%workers], cs)
	}

	var wg, redeliveries sync.WaitGroup
	errs := make(chan error, workers+len(res.Events)) // every sender's one error fits
	for w := range plans {
		wg.Add(1)
		go func(traces [][]chunk, rng *rand.Rand) {
			defer wg.Done()
			next := make([]int, len(traces))
			for live := len(traces); live > 0; {
				ti := rng.Intn(len(traces))
				if next[ti] == len(traces[ti]) {
					continue
				}
				c := traces[ti][next[ti]]
				next[ti]++
				if next[ti] == len(traces[ti]) {
					live--
				}
				if err := deliver(c.door, c.key, c.evs, false); err != nil {
					errs <- err
					return
				}
				if rng.Intn(3) == 0 { // redeliver something this trace already has
					old := traces[ti][rng.Intn(next[ti])]
					door, key := rng.Intn(3), old.key
					if rng.Intn(2) == 0 {
						key += "-again" // past the gateway's dedup ring, into the pipeline
					}
					redeliveries.Add(1)
					go func() {
						defer redeliveries.Done()
						if err := deliver(door, key, old.evs, true); err != nil {
							errs <- fmt.Errorf("redelivery: %v", err)
						}
					}()
				}
			}
		}(plans[w], rand.New(rand.NewSource(seed*100+int64(w))))
	}
	wg.Wait()
	redeliveries.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Gateway.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	sys.Checker.WaitFor(sys.Store.Stats().Seq)

	for _, app := range apps {
		want, got := readTrace(t, ref, app), readTrace(t, sys, app)
		if want.String() != got.String() {
			t.Fatalf("%s differs from the reference\n--- reference\n%v\n--- ingested\n%v", app, want, got)
		}
		// What the continuous checker holds is what a full check says.
		held, err := sys.Registry.Check(app)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range held {
			if v := o.ControlID + "=" + o.Result.Verdict.String(); v != want.verdicts[i] {
				t.Errorf("%s: checker holds %s, full check says %s", app, v, want.verdicts[i])
			}
		}
	}
	seq, runs := sys.Store.Stats().Seq, sys.Correlator.Stats()
	for _, app := range apps {
		if err := sys.CorrelateTrace(app); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Store.Stats().Seq; got != seq {
		t.Fatalf("CorrelateTrace still found %d records to add", got-seq)
	}
	if runs.Errors != 0 {
		t.Fatalf("correlator counted %d rejected derived records", runs.Errors)
	}
}
