package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
)

// TestClusterKillShardMidLoad drives concurrent ingest through the
// router against 3 shards and kills one mid-load. Invariants checked:
//
//   - 503s are scoped: only batches whose trace the dead shard owns are
//     shed; traces on the survivors never see one.
//   - per-trace order: each trace's applied rows are a contiguous,
//     in-order prefix of its event sequence — on the survivors the full
//     sequence, on the killed shard whatever was admitted before death
//     (its store outlives its listener, like a daemon behind a dead NIC).
//   - at-least-once with dedup: client retries under the same Ingest-Key
//     never duplicate a record.
//
// Run under -race in CI: the router's fan-out, ack table, and topology
// snapshots are all exercised concurrently here.
func TestClusterKillShardMidLoad(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2", "s3")
	ring := rt.RingSnapshot()
	const (
		numTraces      = 24
		eventsPerTrace = 16
		batchSize      = 4
		deadName       = "s2"
	)
	traces := make([]string, numTraces)
	for i := range traces {
		traces[i] = fmt.Sprintf("Load%03d", i)
	}
	deadOwned := map[string]bool{}
	hasDead := false
	for _, app := range traces {
		if ring.OwnerName(app) == deadName {
			deadOwned[app] = true
			hasDead = true
		}
	}
	if !hasDead {
		t.Fatalf("no trace of %d hashed to %s; widen the key set", numTraces, deadName)
	}

	mkEvent := func(app string, seq int) events.AppEvent {
		return events.AppEvent{Source: "hrdir", Type: "person.observed", AppID: app,
			Timestamp: time.Unix(1700000000+int64(seq), 0),
			Payload: map[string]string{
				// Zero-padded so ID order == sequence order.
				"recordId": fmt.Sprintf("p-%s-%03d", app, seq),
				"name":     "N", "email": "e@x",
			}}
	}

	totalBatches := numTraces * (eventsPerTrace / batchSize)
	var sentBatches atomic.Int64
	var killed atomic.Bool
	var killOnce sync.Once
	maybeKill := func() {
		if sentBatches.Add(1) == int64(totalBatches/2) {
			killOnce.Do(func() {
				shards[deadName].srv.Close()
				killed.Store(true)
			})
		}
	}

	// send posts one batch through the router, retrying 429s under the
	// same Ingest-Key. Returns false when the batch was shed with 503.
	send := func(app string, batch []events.AppEvent, key string) bool {
		body := mustJSON(t, toWire(batch))
		for attempt := 0; attempt < 200; attempt++ {
			req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(body))
			req.Header.Set("Ingest-Key", key)
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusAccepted:
				return true
			case http.StatusTooManyRequests:
				time.Sleep(2 * time.Millisecond)
			case http.StatusServiceUnavailable:
				if !deadOwned[app] {
					t.Errorf("503 for trace %s owned by live shard %s: %s",
						app, ring.OwnerName(app), rec.Body.String())
					return false
				}
				if !killed.Load() {
					// The shard is not dead yet; its listener may be mid-close.
					time.Sleep(2 * time.Millisecond)
					continue
				}
				return false
			default:
				t.Errorf("ingest %s: unexpected %d %s", app, rec.Code, rec.Body.String())
				return false
			}
		}
		t.Errorf("ingest %s: retry budget exhausted", app)
		return false
	}

	// Workers: each owns a disjoint slice of traces and plays every
	// trace's batches strictly in order — batch k+1 is sent only after
	// batch k was admitted, so admission order is sequence order.
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := w; ti < numTraces; ti += workers {
				app := traces[ti]
				for b := 0; b < eventsPerTrace/batchSize; b++ {
					batch := make([]events.AppEvent, batchSize)
					for j := range batch {
						batch[j] = mkEvent(app, b*batchSize+j)
					}
					ok := send(app, batch, fmt.Sprintf("load-%s-%d", app, b))
					maybeKill()
					if !ok {
						break // shed: this trace's range is dead, stop its sequence
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Survivor traces: the complete in-order sequence, exactly once.
	deadline := time.Now().Add(15 * time.Second)
	for _, app := range traces {
		if deadOwned[app] {
			continue
		}
		owner := shards[ring.OwnerName(app)]
		for {
			got := recordSeqs(ownerRowIDs(owner, app))
			if len(got) == eventsPerTrace && contiguous(got) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s on %s: rows %v, want contiguous 0..%d",
					app, ring.OwnerName(app), got, eventsPerTrace-1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Killed shard's traces: whatever was admitted pre-kill must be an
	// in-order contiguous prefix — no holes, no reordering, no dups. The
	// store outlived its listener, so admitted batches still flushed.
	stableAt := time.Now().Add(300 * time.Millisecond)
	for _, app := range traces {
		if !deadOwned[app] {
			continue
		}
		for time.Now().Before(stableAt) {
			time.Sleep(20 * time.Millisecond)
		}
		got := recordSeqs(ownerRowIDs(shards[deadName], app))
		if !contiguous(got) {
			t.Fatalf("killed shard trace %s: non-prefix rows %v", app, got)
		}
	}
}

// TestClusterJoinWritesNotLost hammers writes at the traces a join is
// about to move while the join runs. Cutover invariant: a write acked
// 202 for a moving trace is never lost — either the tail export shipped
// it (the shed plus the drain barrier plus the quiesced export make the
// tail complete) or the new ring routed it to the joiner. In particular
// the shed must outlive the ring swap; lifting it early lets a write
// route via the old ring to a source that is about to tombstone it.
func TestClusterJoinWritesNotLost(t *testing.T) {
	rt, _ := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 24)
	ingestVia(t, rt, res.Events, "")
	apps := traceIDs(res)

	oldRing := rt.RingSnapshot()
	newRing, err := oldRing.Add("s3")
	if err != nil {
		t.Fatal(err)
	}
	moving := Moved(oldRing, newRing, apps)
	if len(moving) == 0 {
		t.Fatal("join would move nothing; widen the key set")
	}

	joiner := startShard(t, "s3")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := rt.Join(context.Background(), Shard{Name: "s3", URL: joiner.srv.URL}); err != nil {
			t.Errorf("join: %v", err)
		}
	}()

	// One writer loops over the moving traces until the join completes.
	// 503 (the cutover shed) retries the same record under the same key
	// next lap; only 202s count as acked.
	acked := map[string]int{}
	next := map[string]int{}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, app := range moving {
			n := next[app]
			ev := []events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: app,
				Timestamp: time.Unix(1700000000+int64(n), 0),
				Payload: map[string]string{
					"recordId": fmt.Sprintf("p-live-%s-%04d", app, n),
					"name":     "N", "email": "e@x",
				}}}
			req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(mustJSON(t, toWire(ev))))
			req.Header.Set("Ingest-Key", fmt.Sprintf("live-%s-%d", app, n))
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusAccepted:
				acked[app]++
				next[app] = n + 1
			case http.StatusServiceUnavailable:
				// Shed mid-cutover; retry next lap.
			case http.StatusTooManyRequests:
				time.Sleep(time.Millisecond)
			default:
				t.Fatalf("ingest %s: %d %s", app, rec.Code, rec.Body.String())
			}
		}
	}
	<-done
	if t.Failed() {
		return
	}
	// Every acked write must surface on the new owner.
	deadline := time.Now().Add(15 * time.Second)
	for _, app := range moving {
		want := acked[app]
		for {
			got := 0
			for _, id := range ownerRowIDs(joiner, app) {
				if strings.HasPrefix(id, "p-live-") {
					got++
				}
			}
			if got >= want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s: %d of %d acked live writes reached the joiner; the cutover lost acked writes",
					app, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func ownerRowIDs(sh *testShard, app string) []string {
	rows := sh.sys.Store.RowsForApp(app)
	ids := make([]string, 0, len(rows))
	for _, r := range rows {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// recordSeqs extracts the numeric suffix of p-<app>-NNN record IDs.
func recordSeqs(ids []string) []int {
	var seqs []int
	for _, id := range ids {
		i := strings.LastIndexByte(id, '-')
		if i < 0 {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(id[i+1:], "%d", &n); err == nil {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs
}

// contiguous reports whether seqs is exactly 0..len-1.
func contiguous(seqs []int) bool {
	for i, s := range seqs {
		if s != i {
			return false
		}
	}
	return true
}
