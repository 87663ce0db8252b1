package repro

// One testing.B benchmark per experiment (E1-E8 in DESIGN.md). Each bench
// exercises the experiment's core operation at a fixed size so that
// `go test -bench=. -benchmem` reports comparable per-operation costs;
// cmd/benchrunner prints the full experiment tables with parameter sweeps.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bom"
	"repro/internal/controls"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/latency"
	"repro/internal/provenance"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xom"
)

// mustHiring builds the hiring domain or aborts the benchmark.
func mustHiring(b *testing.B) *workload.Domain {
	b.Helper()
	d, err := workload.Hiring()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// loadedSystem builds a system pre-loaded with n fully visible traces.
func loadedSystem(b *testing.B, d *workload.Domain, n int, cfg core.Config) (*core.System, *workload.SimResult) {
	b.Helper()
	sys, err := core.New(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	res := d.Simulate(workload.SimOptions{Seed: 99, Traces: n, ViolationRate: 0.3, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		b.Fatal(err)
	}
	if err := sys.CorrelateAll(); err != nil {
		b.Fatal(err)
	}
	return sys, res
}

// BenchmarkE1_Table1Codec measures the Table-1 row codec: encoding a
// provenance node to its XML row and decoding it back.
func BenchmarkE1_Table1Codec(b *testing.B) {
	d := mustHiring(b)
	sys, _ := loadedSystem(b, d, 10, core.Config{})
	app := sys.Store.AppIDs()[0]
	rows := sys.Store.RowsForApp(app)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := rows[i%len(rows)]
		n, e, err := store.DecodeRow(row)
		if err != nil {
			b.Fatal(err)
		}
		if n != nil {
			if _, err := store.EncodeNode(n); err != nil {
				b.Fatal(err)
			}
		} else if _, err := store.EncodeEdge(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_TraceBuild measures building one Fig-1 trace end to end:
// simulate, capture through the recorder pipeline, correlate.
func BenchmarkE2_TraceBuild(b *testing.B) {
	d := mustHiring(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.New(d, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		res := d.Simulate(workload.SimOptions{Seed: int64(i), Traces: 1, Visibility: 1.0})
		if err := sys.Ingest(res.Events); err != nil {
			b.Fatal(err)
		}
		if err := sys.CorrelateAll(); err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}
}

// BenchmarkE3_VisibilitySweep measures one full detection decision at 70%
// visibility: evaluating all three controls on one trace, rules vs the
// integrated hand-coded baseline.
func BenchmarkE3_VisibilitySweep(b *testing.B) {
	d := mustHiring(b)
	res := d.Simulate(workload.SimOptions{Seed: 5, Traces: 500, ViolationRate: 0.3, Visibility: 0.7})
	sys, err := core.New(d, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Ingest(res.Events); err != nil {
		b.Fatal(err)
	}
	if err := sys.CorrelateAll(); err != nil {
		b.Fatal(err)
	}
	apps := sys.Store.AppIDs()

	b.Run("rules", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Registry.Check(apps[i%len(apps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		h := baseline.NewHiring(baseline.ScopeIntegrated())
		for _, ev := range res.Events {
			h.Observe(ev)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := h.Verdicts(apps[i%len(apps)]); len(v) != 3 {
				b.Fatal("bad verdicts")
			}
		}
	})
}

// BenchmarkE4_AuthoringPipeline measures the Fig-3 steps: XOM generation,
// verbalization, and compiling the paper's control against the vocabulary.
func BenchmarkE4_AuthoringPipeline(b *testing.B) {
	d := mustHiring(b)
	controlText := d.Controls[0].Text
	b.Run("verbalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			om, err := xom.FromModel(d.Model)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bom.Verbalize(om, bom.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rules.Compile(controlText, d.Vocab); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5_Scale measures per-trace checking and indexed point queries
// on a 10k-trace store.
func BenchmarkE5_Scale(b *testing.B) {
	d := mustHiring(b)
	sys, _ := loadedSystem(b, d, 10000, core.Config{})
	apps := sys.Store.AppIDs()
	b.Run("check-one-trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Registry.Check(apps[i%len(apps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	target := provenance.String("REQ-hiring-005000")
	q := query.Query{Type: "jobRequisition", Preds: []query.Pred{
		{Field: "reqID", Op: query.Eq, Value: target},
	}}
	b.Run("point-query-indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sys.Query.Run(q)
			if err != nil || len(res) != 1 {
				b.Fatalf("res=%d err=%v", len(res), err)
			}
		}
	})
}

// BenchmarkE6_Continuous measures the incremental path: one event arriving
// at a loaded store, triggering re-correlation and re-checking of its
// trace.
func BenchmarkE6_Continuous(b *testing.B) {
	d := mustHiring(b)
	sys, _ := loadedSystem(b, d, 2000, core.Config{})
	apps := sys.Store.AppIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := apps[i%len(apps)]
		// The incremental unit of work: re-correlate + re-check one trace.
		if err := sys.CorrelateTrace(app); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Registry.Check(app); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTouchNodes resolves one updatable node per trace; re-writing it
// emits one change-feed event that dirties the trace.
func benchTouchNodes(b *testing.B, sys *core.System, apps []string) []*provenance.Node {
	b.Helper()
	touch := make([]*provenance.Node, len(apps))
	for i, app := range apps {
		for _, r := range sys.Store.RowsForApp(app) {
			if n := sys.Store.Node(r.ID); n != nil {
				touch[i] = n
				break
			}
		}
		if touch[i] == nil {
			b.Fatalf("no touchable node for %s", app)
		}
	}
	return touch
}

// BenchmarkE6b_ContinuousParallel measures the sharded continuous-checking
// engine against the serial baseline on the E6 workload: an event stream
// touching every trace of a loaded hiring store in bursts, each event
// demanding an eventually up-to-date verdict for its trace.
//
//   - serial: the seed's single-goroutine Checker semantics — every event
//     triggers a full re-check of its trace, one at a time, no
//     coalescing, no cache.
//   - engine/workers=N: the sharded engine fed the identical stream — N
//     hash-sharded workers with dirty-set coalescing — measured to
//     quiescence (every trace's final state checked). The result cache is
//     disabled so both variants pay full evaluation cost per check; the
//     win measured here is coalescing plus cross-trace parallelism.
//   - feed/workers=N: the full production stack for context — the same
//     events as real store writes flowing through the change feed, result
//     cache live. Write cost dominates this variant; it bounds end-to-end
//     ingest throughput rather than checking throughput.
func BenchmarkE6b_ContinuousParallel(b *testing.B) {
	d := mustHiring(b)
	const traces = 256
	const burst = 4 // events per trace per round

	b.Run("serial", func(b *testing.B) {
		sys, _ := loadedSystem(b, d, traces, core.Config{DisableCheckCache: true})
		apps := sys.Store.AppIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, app := range apps {
				for k := 0; k < burst; k++ {
					if _, err := sys.Registry.Check(app); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(traces*burst*b.N)/b.Elapsed().Seconds(), "events/s")
	})

	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("engine/workers=%d", w), func(b *testing.B) {
			sys, _ := loadedSystem(b, d, traces, core.Config{DisableCheckCache: true})
			apps := sys.Store.AppIDs()
			ch := controls.NewCheckerOpts(sys.Registry, nil, controls.CheckerOptions{Workers: w})
			ch.Start()
			defer ch.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, app := range apps {
					for k := 0; k < burst; k++ {
						ch.MarkDirty(app)
					}
				}
				ch.WaitFor(sys.Store.Stats().Seq)
			}
			b.ReportMetric(float64(traces*burst*b.N)/b.Elapsed().Seconds(), "events/s")
			st := ch.Stats()
			b.ReportMetric(float64(st.ChecksRun)/float64(b.N), "checks/round")
		})
	}

	b.Run("feed/workers=4", func(b *testing.B) {
		sys, _ := loadedSystem(b, d, traces, core.Config{})
		apps := sys.Store.AppIDs()
		touch := benchTouchNodes(b, sys, apps)
		ch := controls.NewCheckerOpts(sys.Registry, nil, controls.CheckerOptions{Workers: 4})
		ch.Start()
		defer ch.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range touch {
				for k := 0; k < burst; k++ {
					if err := sys.Store.UpdateNode(n); err != nil {
						b.Fatal(err)
					}
				}
			}
			ch.WaitFor(sys.Store.Stats().Seq)
		}
		b.ReportMetric(float64(traces*burst*b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkE7_VocabScale measures compiling the paper control against a
// 1000-phrase vocabulary (compare with BenchmarkE4's domain-sized one).
func BenchmarkE7_VocabScale(b *testing.B) {
	tbl, err := experiments.E7VocabScale([]int{1000})
	if err != nil {
		b.Fatal(err)
	}
	_ = tbl
	// The table run above validates correctness; the loop below isolates
	// the compile cost at that vocabulary size.
	d := mustHiring(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rules.Compile(d.Controls[0].Text, d.Vocab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_ChangeCost measures deploying a new control on a loaded
// system — the paper's "no application change" operation.
func BenchmarkE8_ChangeCost(b *testing.B) {
	d := mustHiring(b)
	sys, _ := loadedSystem(b, d, 500, core.Config{})
	text := `
definitions
  set 'the request' to a job requisition ;
if the candidate list of 'the request' exists
then the internal control is satisfied ;
`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-control-%d", i)
		if _, err := sys.Registry.Deploy(id, "bench", text); err != nil {
			b.Fatal(err)
		}
		if err := sys.Registry.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_GroupCommit measures synced ingest throughput (experiment
// E9 in DESIGN.md §4.2): every acknowledged write is fsynced, and the
// group-commit pipeline lets concurrent writers share one fsync, so
// events/fsync grows with the writer count. (The per-append arm it was
// measured against is in EXPERIMENTS.md, retired in PR 12.)
func BenchmarkE9_GroupCommit(b *testing.B) {
	d := mustHiring(b)
	for _, writers := range []int{1, 4, 16} {
		writers := writers
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			st, err := store.Open(store.Options{
				Dir: b.TempDir(), Model: d.Model, Sync: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += writers {
						n := &provenance.Node{
							ID: fmt.Sprintf("n%d-%d", w, i), Class: provenance.ClassData,
							Type: "jobRequisition", AppID: fmt.Sprintf("A%d", w),
							Attrs: map[string]provenance.Value{
								"reqID": provenance.String(fmt.Sprintf("REQ-%d-%d", w, i)),
							},
						}
						if err := st.PutNode(n); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
			ds := st.Durability()
			if ds.Fsyncs > 0 {
				b.ReportMetric(float64(b.N)/float64(ds.Fsyncs), "events/fsync")
			}
		})
	}
}

// BenchmarkE10_ReadWriteMix measures the MVCC snapshot read path (D7)
// under concurrent write pressure: 8 reader goroutines drive compliance
// checks over a loaded hiring store while 0, 4 or 16 background writers
// commit enrichment updates through the group-commit pipeline as fast as
// they can. Reported per variant: aggregate check throughput (checks/s), the
// p99 single-check latency (p99-us), and the write throughput the
// background writers sustained alongside (writes/s).
//
// Every check runs against an immutable published snapshot after one
// atomic pointer load, so check latency is flat in writer count. (The
// shared-mutex arm it was measured against is in EXPERIMENTS.md, retired
// in PR 12.)
func BenchmarkE10_ReadWriteMix(b *testing.B) {
	d := mustHiring(b)
	const traces = 256
	const readerGoroutines = 8
	for _, writers := range []int{0, 4, 16} {
		writers := writers
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			sys, _ := loadedSystem(b, d, traces, core.Config{
				Dir: b.TempDir(), DisableCheckCache: true,
			})
			apps := sys.Store.AppIDs()

			// Background writers: each loops enrichment updates on a
			// node of its own trace until the readers finish.
			var touch []*provenance.Node
			if writers > 0 {
				touch = benchTouchNodes(b, sys, apps[:writers])
			}
			stop := make(chan struct{})
			var writes atomic.Int64
			var wwg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wwg.Add(1)
				go func() {
					defer wwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := sys.Store.UpdateNode(touch[w]); err != nil {
							b.Error(err)
							return
						}
						writes.Add(1)
					}
				}()
			}

			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			lat := make([][]time.Duration, readerGoroutines)
			var rwg sync.WaitGroup
			b.ResetTimer()
			for r := 0; r < readerGoroutines; r++ {
				r := r
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					samples := make([]time.Duration, 0, b.N/readerGoroutines+8)
					for {
						i := remaining.Add(-1)
						if i < 0 {
							break
						}
						app := apps[int(i)%len(apps)]
						t0 := time.Now()
						if _, err := sys.Registry.Check(app); err != nil {
							b.Error(err)
							return
						}
						samples = append(samples, time.Since(t0))
					}
					lat[r] = samples
				}()
			}
			rwg.Wait()
			b.StopTimer()
			close(stop)
			wwg.Wait()

			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "checks/s")
			if writers > 0 {
				b.ReportMetric(float64(writes.Load())/b.Elapsed().Seconds(), "writes/s")
			}
			var all latency.Digest
			for _, s := range lat {
				all.AddAll(s)
			}
			if all.Count() > 0 {
				b.ReportMetric(float64(all.P50().Microseconds()), "p50-us")
				b.ReportMetric(float64(all.P99().Microseconds()), "p99-us")
			}
		})
	}
}

// BenchmarkE12_AsyncIngest measures experiment E12: the asynchronous
// ingestion gateway (D9) against the synchronous ingest baseline
// (-sync-ingest ablation) on a durable, fsynced store with continuous
// correlation/checking live in both modes. Each benchmark iteration
// replays the same simulated hiring event stream — split into 64-event
// client batches and striped across W concurrent writers — into a fresh
// system (fresh systems keep every iteration's writes real; replaying
// into a loaded store would be absorbed as duplicate rows). Sync writers
// pay the full group commit per call; async writers offer batches to the
// bounded gateway under idempotency keys, back off on 429, and the
// iteration ends only when the gateway has drained every admitted event.
// Reported: durable events/s, p99 admission latency (the admission call
// is the commit itself in sync mode), and shed 429s per op for async.
func BenchmarkE12_AsyncIngest(b *testing.B) {
	d := mustHiring(b)
	const traces = 200
	res := d.Simulate(workload.SimOptions{Seed: 12, Traces: traces, ViolationRate: 0.3, Visibility: 1.0})
	batches := res.EventBatches(64)
	total := len(res.Events)
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		for _, writers := range []int{4, 16} {
			mode, writers := mode, writers
			b.Run(fmt.Sprintf("%s/writers=%d", mode.name, writers), func(b *testing.B) {
				var admit latency.Digest
				var shed atomic.Uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys, err := core.New(d, core.Config{
						Dir: b.TempDir(), Sync: true, Continuous: true,
						DisableAsyncIngest: !mode.async,
						IngestQueueDepth:   512,
					})
					if err != nil {
						b.Fatal(err)
					}
					lat := make([][]time.Duration, writers)
					b.StartTimer()
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						w := w
						wg.Add(1)
						go func() {
							defer wg.Done()
							samples := make([]time.Duration, 0, len(batches)/writers+1)
							for j := w; j < len(batches); j += writers {
								if !mode.async {
									t0 := time.Now()
									if err := sys.Ingest(batches[j]); err != nil {
										b.Error(err)
										return
									}
									samples = append(samples, time.Since(t0))
									continue
								}
								key := fmt.Sprintf("e12-%d-%d", w, j)
								for {
									t0 := time.Now()
									_, err := sys.Gateway.Offer(key, batches[j])
									var ov *ingest.OverloadError
									if errors.As(err, &ov) {
										shed.Add(1)
										time.Sleep(ov.RetryAfter)
										continue
									}
									if err != nil {
										b.Error(err)
										return
									}
									samples = append(samples, time.Since(t0))
									break
								}
							}
							lat[w] = samples
						}()
					}
					wg.Wait()
					if mode.async {
						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
						if err := sys.Gateway.WaitIdle(ctx); err != nil {
							b.Fatal(err)
						}
						cancel()
					}
					b.StopTimer()
					for _, s := range lat {
						admit.AddAll(s)
					}
					sys.Close()
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "events/s")
				if admit.Count() > 0 {
					b.ReportMetric(float64(admit.P99().Microseconds()), "p99-admit-us")
				}
				if mode.async {
					b.ReportMetric(float64(shed.Load())/float64(b.N), "shed/op")
				}
			})
		}
	}
}

// BenchmarkE11_IndexedRuleEval measures experiment E11: index-accelerated
// rule evaluation. One hiring trace is padded to ~1k nodes with person
// resources — bystander records a binder's type posting list skips — and
// 16 controls (the domain's three rule texts cycled under
// distinct IDs) are checked against it with the result cache off, so
// every iteration pays the full evaluation path. Indexed evaluation
// combines the type index (candidate enumeration in O(matches)), the
// binder planner, and cross-control binding reuse (identical binder
// fingerprints computed once per trace version). (The full-scan arm it
// was measured against is in EXPERIMENTS.md, retired in PR 12.)
func BenchmarkE11_IndexedRuleEval(b *testing.B) {
	d := mustHiring(b)
	const nControls = 16
	const traceNodes = 1000
	sys, _ := loadedSystem(b, d, 4, core.Config{DisableCheckCache: true})
	app := sys.Store.AppIDs()[0]
	var have int
	if err := sys.Store.View(func(g *provenance.Graph) error {
		have = len(g.Nodes(provenance.NodeFilter{AppID: app}))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for i := have; i < traceNodes; i++ {
		err := sys.Store.PutNode(&provenance.Node{
			ID: fmt.Sprintf("e11-pad-%04d", i), Class: provenance.ClassResource,
			Type: "person", AppID: app,
			Attrs: map[string]provenance.Value{
				"name":  provenance.String(fmt.Sprintf("Pad Person %d", i)),
				"email": provenance.String(fmt.Sprintf("pad%d@example.com", i)),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, cp := range sys.Registry.List() {
		if err := sys.Registry.Remove(cp.ID); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nControls; i++ {
		cs := d.Controls[i%len(d.Controls)]
		if _, err := sys.Registry.Deploy(fmt.Sprintf("e11-%02d", i), cs.Name, cs.Text); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Registry.Check(app); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bs := sys.Registry.BindingStats()
	if total := bs.Hits + bs.Misses; total > 0 {
		b.ReportMetric(bs.ReuseRatio(), "reuse-ratio")
	}
}
