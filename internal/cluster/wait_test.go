package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/store/faultfs"
)

// wedgedShard is a durable shard whose disk stops taking writes between
// wedge and unwedge: a batch admitted in between stays pending until then.
func wedgedShard(t testing.TB) (sh *testShard, wedge, unwedge func()) {
	t.Helper()
	var wedged atomic.Bool
	var once sync.Once
	gate := make(chan struct{})
	fs := faultfs.New(func(op faultfs.Op) faultfs.Fault {
		if op.Kind == faultfs.OpWrite && wedged.Load() {
			<-gate
		}
		return faultfs.None
	})
	sh = startShardWith(t, core.Config{Dir: t.TempDir(), Sync: true, FS: fs})
	unwedge = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(unwedge) // runs before the shard's own cleanup
	return sh, func() { wedged.Store(true) }, unwedge
}

// routerOver builds a router over the given shards, named in order s1, s2, ...
func routerOver(t testing.TB, shards ...*testShard) *Router {
	t.Helper()
	specs := make([]Shard, len(shards))
	for i, sh := range shards {
		sh.name = fmt.Sprintf("s%d", i+1)
		specs[i] = Shard{Name: sh.name, URL: sh.srv.URL}
	}
	rt, err := NewRouter(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// person is one hrdir event for app; no name/email makes it a rejected one.
func person(app, rec string, ok bool) events.AppEvent {
	p := map[string]string{"recordId": rec}
	if ok {
		p["name"], p["email"] = "N "+rec, rec+"@x"
	}
	return events.AppEvent{Source: "hrdir", Type: "person.observed", AppID: app,
		Timestamp: time.Unix(1700000000, 0), Payload: p}
}

// splitApps returns one trace owned by each of the router's two shards,
// in shard-name order.
func splitApps(rt *Router) (onS1, onS2 string) {
	a, b := pickSplitPair(rt.RingSnapshot())
	if rt.RingSnapshot().OwnerName(a) == "s1" {
		return a, b
	}
	return b, a
}

type compositeAnswer struct {
	Token       string `json:"token"`
	State       string `json:"state"`
	Events      int    `json:"events"`
	Deduped     bool   `json:"deduped"`
	Error       string `json:"error"`
	EventErrors []struct {
		Index int    `json:"index"`
		Shard string `json:"shard"`
	} `json:"eventErrors"`
}

func decodeComposite(t testing.TB, code, want int, body []byte) compositeAnswer {
	t.Helper()
	if code != want {
		t.Fatalf("status %d, want %d: %s", code, want, body)
	}
	var a compositeAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("composite answer: %v (%s)", err, body)
	}
	return a
}

// TestRouterPreferWaitPushesAppliedAck: with "Prefer: wait" the router's
// 202 comes once every shard applied its part, and a rejected event is
// reported at its client batch position — no poll needed.
func TestRouterPreferWaitPushesAppliedAck(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	onS1, onS2 := splitApps(rt)
	batch := []events.AppEvent{person(onS2, "w-0", true), person(onS1, "w-1", true), person(onS2, "w-2", false)}
	hdr := map[string]string{"Ingest-Key": "wait-1", "Prefer": "wait=5"}
	code, body := rdo(t, rt, http.MethodPost, "/events", toWire(batch), hdr)
	a := decodeComposite(t, code, http.StatusAccepted, body)
	if a.State != "applied" || len(a.EventErrors) != 1 || a.EventErrors[0].Index != 2 || a.EventErrors[0].Shard != "s2" {
		t.Fatalf("Prefer: wait answer = %s, want applied with event 2 rejected on s2", body)
	}
	for name, sh := range shards {
		if sh.sys.Gateway.Stats().PendingBatches != 0 {
			t.Fatalf("shard %s still has pending batches after an applied answer", name)
		}
	}
	// A redelivery waits on the original parts and says so.
	code, body = rdo(t, rt, http.MethodPost, "/events", toWire(batch), hdr)
	if again := decodeComposite(t, code, http.StatusAccepted, body); again.State != "applied" || !again.Deduped {
		t.Fatalf("redelivery = %s, want applied and deduped", body)
	}
}

// TestRouterKeepsAppliedParts: a part its shard answered applied is kept
// by the router, so polling the composite token answers applied, with the
// event errors at client batch positions, even once that shard is gone.
func TestRouterKeepsAppliedParts(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	onS1, onS2 := splitApps(rt)
	batch := []events.AppEvent{person(onS1, "k-0", true), person(onS2, "k-1", true), person(onS2, "k-2", false)}
	code, body := rdo(t, rt, http.MethodPost, "/events", toWire(batch), map[string]string{"Prefer": "wait=5"})
	first := decodeComposite(t, code, http.StatusAccepted, body)
	if first.State != "applied" {
		t.Fatalf("Prefer: wait answer = %s, want applied", body)
	}
	shards["s2"].srv.Close()
	code, body = rdo(t, rt, http.MethodGet, "/ingest/ack?token="+first.Token, nil, nil)
	polled := decodeComposite(t, code, http.StatusOK, body)
	if polled.State != "applied" || polled.Events != 3 || len(polled.EventErrors) != 1 ||
		polled.EventErrors[0].Index != 2 || polled.EventErrors[0].Shard != "s2" {
		t.Fatalf("poll with s2 stopped = %s, want applied with event 2 rejected on s2", body)
	}
}

// TestRouterPreferWaitRunsOut: a part still unapplied when the wait runs
// out folds as pending; polling the composite token with "Prefer: wait"
// answers applied once the shard catches up.
func TestRouterPreferWaitRunsOut(t *testing.T) {
	stuck, wedge, unwedge := wedgedShard(t)
	rt := routerOver(t, stuck, startShard(t, "s2"))
	onS1, onS2 := splitApps(rt)
	wedge()
	batch := []events.AppEvent{person(onS1, "r-0", true), person(onS2, "r-1", true)}
	start := time.Now()
	code, body := rdo(t, rt, http.MethodPost, "/events", toWire(batch), map[string]string{"Prefer": "wait=1"})
	a := decodeComposite(t, code, http.StatusAccepted, body)
	if a.State != "pending" {
		t.Fatalf("answer with s1 wedged = %s, want pending", body)
	}
	if took := time.Since(start); took < time.Second || took > api.MaxAckWait {
		t.Fatalf("pending answer after %v, want after the 1s wait", took)
	}
	unwedge()
	code, body = rdo(t, rt, http.MethodGet, "/ingest/ack?token="+a.Token, nil, map[string]string{"Prefer": "wait=5"})
	if polled := decodeComposite(t, code, http.StatusOK, body); polled.State != "applied" {
		t.Fatalf("poll after the disk recovered = %s, want applied", body)
	}
}

// TestRouterShedsWithoutWaiting: admission control answers at once. One
// part is admitted by a shard whose disk is wedged (its wait would run
// for seconds), the other is shed: the 429 does not wait for the first.
func TestRouterShedsWithoutWaiting(t *testing.T) {
	stuck, wedge, _ := wedgedShard(t)
	rt := routerOver(t, stuck, startShardWith(t, core.Config{IngestShards: 1, IngestQueueDepth: 2}))
	onS1, onS2 := splitApps(rt)
	wedge()
	batch := []events.AppEvent{person(onS1, "x-0", true)}
	for i := 0; i < 3; i++ { // more than s2's queue holds
		batch = append(batch, person(onS2, fmt.Sprintf("x-%d", i+1), true))
	}
	start := time.Now()
	code, body := rdo(t, rt, http.MethodPost, "/events", toWire(batch), map[string]string{"Prefer": "wait=5"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("429 answered after %v: it waited for the admitted part", took)
	}
}
