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
// D9) against the synchronous baseline (the -sync-ingest ablation): W
// concurrent writers ship the same simulated event stream in fixed-size
// batches into a durable, fsynced store. In sync mode every write call is
// the full ingestion — the batch and the correlation records it causes,
// one group commit — so admission latency IS commit latency. In async mode writers offer batches to the bounded gateway
// under idempotency keys, back off on 429 (counted as "shed"), and the
// clock stops only once the gateway has drained every admitted event to
// the store, so the throughput column compares durable events per second
// in both modes. The continuous checker runs in both modes so the
// downstream work per event is identical.
func E12Ingest(traces int, writerCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Async ingestion gateway vs synchronous ingest",
		Paper: "§II recorder clients feeding the provenance store; DESIGN.md D9",
		Columns: []string{"writers", "mode", "events", "events/s",
			"p99 admit", "shed"},
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
				m.p99.String(), m.shed)
		}
	}
	t.Notes = append(t.Notes,
		"sync: POST /events?sync=1 semantics — the admission call is the full durable commit (one per batch, derived edges included)",
		"async: bounded gateway admission; shed counts 429 rejections the writer retried after Retry-After",
		"async events/s includes draining every admitted batch to the store before the clock stops",
	)
	return t, nil
}

type e12Measurement struct {
	events     int
	throughput float64
	p99        time.Duration
	shed       uint64
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
	lat := make([][]time.Duration, writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples := make([]time.Duration, 0, len(batches)/writers+1)
			for i := w; i < len(batches); i += writers {
				batch := batches[i]
				if !async {
					t0 := time.Now()
					if err := sys.Ingest(batch); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					samples = append(samples, time.Since(t0))
					continue
				}
				key := fmt.Sprintf("e12-%d-%d", w, i)
				for {
					t0 := time.Now()
					_, err := sys.Gateway.Offer(key, batch)
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
					samples = append(samples, time.Since(t0))
					break
				}
			}
			lat[w] = samples
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return e12Measurement{}, err
	}
	if async {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := sys.Gateway.WaitIdle(ctx); err != nil {
			return e12Measurement{}, fmt.Errorf("e12: drain: %w", err)
		}
	}
	elapsed := time.Since(start)

	var all latency.Digest
	for _, s := range lat {
		all.AddAll(s)
	}
	m := e12Measurement{
		events:     total,
		throughput: float64(total) / elapsed.Seconds(),
		p99:        all.P99(),
		shed:       shed.Load(),
	}
	return m, nil
}
