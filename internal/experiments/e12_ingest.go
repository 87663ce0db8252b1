package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/ingest"
	"repro/internal/latency"
	"repro/internal/workload"
)

// E12Ingest measures the asynchronous ingestion gateway (design decision
// D9) against in-process ingest (System.Ingest on the caller, the path an
// embedding program such as bench's check_heavy takes): W concurrent
// writers ship the same simulated event stream in fixed-size batches into
// a durable, fsynced store. In sync mode every write call is the full
// ingestion — the batch and the correlation records it causes, one group
// commit — so admission latency IS commit latency. In async mode
// a writer does what every client does since "Prefer: wait": it offers
// the batch to the bounded gateway under an idempotency key, backs off on
// 429 (counted as "shed"), and waits until the batch is applied before
// sending its next one. Both modes therefore time durable events per
// second under the same closed loop. The continuous checker runs in both
// modes so the downstream work per event is identical.
func E12Ingest(traces int, writerCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Async ingestion gateway vs in-process ingest",
		Paper: "§II recorder clients feeding the provenance store; DESIGN.md D9",
		Columns: []string{"writers", "mode", "events", "events/s",
			"p99 admit", "p99 applied", "shed"},
	}
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	res := d.Simulate(workload.SimOptions{Seed: 12, Traces: traces, ViolationRate: 0.3, Visibility: 1.0})
	batches := res.EventBatches(64)
	for _, writers := range writerCounts {
		for _, mode := range []string{"sync", "async"} {
			m, err := e12Measure(d, batches, writers, mode == "async")
			if err != nil {
				return nil, err
			}
			t.AddRow(writers, mode, m.events, fmt.Sprintf("%.0f", m.throughput),
				m.admit.String(), m.applied.String(), m.shed)
		}
	}
	t.Notes = append(t.Notes,
		"sync: in-process System.Ingest on the caller — the admission call is the full durable commit (one per batch, derived edges included)",
		"async: bounded gateway admission, then a wait for the apply (Gateway.Wait, the in-process Prefer: wait); shed counts 429 rejections the writer retried after Retry-After",
		"p99 admit times the Offer call alone, p99 applied the whole send from the first Offer to the applied ack; in sync mode both are the commit",
	)
	return t, nil
}

type e12Measurement struct {
	events         int
	throughput     float64
	admit, applied time.Duration // p99s
	shed           uint64
}

func e12Measure(d *workload.Domain, batches [][]events.AppEvent, writers int, async bool) (e12Measurement, error) {
	dir, err := os.MkdirTemp("", "e12-*")
	if err != nil {
		return e12Measurement{}, err
	}
	defer os.RemoveAll(dir)
	sys, err := core.New(d, core.Config{
		Dir: dir, Sync: true, Continuous: true,
		DisableAsyncIngest: !async,
		IngestQueueDepth:   512,
	})
	if err != nil {
		return e12Measurement{}, err
	}
	defer sys.Close()

	var total int
	for _, b := range batches {
		total += len(b)
	}
	var shed atomic.Uint64
	var firstErr atomic.Value
	admitLat := make([][]time.Duration, writers)
	appliedLat := make([][]time.Duration, writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			admit := make([]time.Duration, 0, len(batches)/writers+1)
			applied := make([]time.Duration, 0, len(batches)/writers+1)
			for i := w; i < len(batches); i += writers {
				batch := batches[i]
				t0 := time.Now()
				if !async {
					if err := sys.Ingest(batch); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					admit = append(admit, time.Since(t0))
					applied = append(applied, time.Since(t0))
					continue
				}
				key := fmt.Sprintf("e12-%d-%d", w, i)
				var st ingest.AckStatus
				for {
					t1 := time.Now()
					var err error
					st, err = sys.Gateway.Offer(key, batch)
					var ov *ingest.OverloadError
					if errors.As(err, &ov) {
						shed.Add(1)
						time.Sleep(ov.RetryAfter)
						continue
					}
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					admit = append(admit, time.Since(t1))
					break
				}
				if done, ok := sys.Gateway.Wait(context.Background(), st.Token); !ok || done.State != ingest.StateApplied {
					firstErr.CompareAndSwap(nil, fmt.Errorf("e12: batch %s not applied", key))
					return
				}
				applied = append(applied, time.Since(t0))
			}
			admitLat[w], appliedLat[w] = admit, applied
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return e12Measurement{}, err
	}
	elapsed := time.Since(start)

	var admit, applied latency.Digest
	for w := range admitLat {
		admit.AddAll(admitLat[w])
		applied.AddAll(appliedLat[w])
	}
	m := e12Measurement{
		events:     total,
		throughput: float64(total) / elapsed.Seconds(),
		admit:      admit.P99(),
		applied:    applied.P99(),
		shed:       shed.Load(),
	}
	return m, nil
}
