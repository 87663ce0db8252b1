package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/events"
)

// assertClusterServes checks every trace reads back through the router
// with a non-empty graph.
func assertClusterServes(t testing.TB, rt *Router, apps []string) {
	t.Helper()
	for _, app := range apps {
		code, body := rdo(t, rt, http.MethodGet, "/graph?app="+app, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("graph %s: %d %s", app, code, body)
		}
		var g struct {
			Nodes []any `json:"nodes"`
		}
		if err := json.Unmarshal(body, &g); err != nil || len(g.Nodes) == 0 {
			t.Fatalf("graph %s empty: %s", app, body)
		}
	}
}

// TestClusterJoin: a third shard joins a loaded 2-shard cluster. Exactly
// the traces the new ring reassigns move (shipped as sealed segments,
// including some already-demoted cold ones), the old owners release
// them, and every trace keeps serving through the router — including
// writes to moved traces, which now land on the joiner.
func TestClusterJoin(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 24)
	ingestVia(t, rt, res.Events, "")
	apps := traceIDs(res)

	// Demote a couple of traces so the handoff exports from the cold
	// tier too, not just the hot path.
	demoted := 0
	for name, sh := range shards {
		held := sh.sys.Store.AppIDs()
		if len(held) > 2 {
			if err := sh.sys.Store.DemoteTraces(held[0], held[1]); err != nil {
				t.Fatalf("demote on %s: %v", name, err)
			}
			demoted += 2
		}
	}
	if demoted == 0 {
		t.Fatal("no traces demoted; test setup broken")
	}

	oldRing := rt.RingSnapshot()
	joiner := startShard(t, "s3")
	resJoin, err := rt.Join(context.Background(), Shard{Name: "s3", URL: joiner.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	newRing := rt.RingSnapshot()
	wantMoved := Moved(oldRing, newRing, apps)
	if resJoin.Moved != len(wantMoved) {
		t.Fatalf("join moved %d traces, ring predicts %d", resJoin.Moved, len(wantMoved))
	}
	if len(resJoin.ReleaseErrors) != 0 {
		t.Fatalf("release errors: %v", resJoin.ReleaseErrors)
	}
	if len(wantMoved) == 0 {
		t.Fatal("ring moved nothing on a 24-trace join; hash placement broken")
	}
	// The joiner holds exactly the moved set.
	got := joiner.sys.Store.AppIDs()
	sort.Strings(got)
	sort.Strings(wantMoved)
	if fmt.Sprint(got) != fmt.Sprint(wantMoved) {
		t.Fatalf("joiner holds %v, want %v", got, wantMoved)
	}
	// The old owners released what they shipped.
	movedSet := map[string]bool{}
	for _, app := range wantMoved {
		movedSet[app] = true
	}
	for name, sh := range shards {
		for _, app := range sh.sys.Store.AppIDs() {
			if movedSet[app] {
				t.Fatalf("shard %s still holds moved trace %s", name, app)
			}
		}
	}
	assertClusterServes(t, rt, apps)
	// No trace is still shedding writes.
	if rt.isMoving(wantMoved[0]) {
		t.Fatal("moving set not cleared after join")
	}
	// A write to a moved trace lands on the joiner.
	target := wantMoved[0]
	before := len(joiner.sys.Store.RowsForApp(target))
	ingestVia(t, rt, []events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: target,
		Timestamp: time.Unix(1700000100, 0),
		Payload:   map[string]string{"recordId": "p-joined-" + target, "name": "J", "email": "j@x"}}}, "")
	if after := len(joiner.sys.Store.RowsForApp(target)); after != before+1 {
		t.Fatalf("post-join write: joiner rows %d -> %d, want +1", before, after)
	}
}

// TestClusterJoinDashboardCountsEachTraceOnce: after a join the router's
// /dashboard counts every trace once per control. The old owners forget the
// verdicts of the traces they released, so a moved trace is counted by its
// new owner alone.
func TestClusterJoinDashboardCountsEachTraceOnce(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 24)
	ingestVia(t, rt, res.Events, "")
	for _, sh := range shards {
		if _, err := sh.sys.CheckAll(); err != nil {
			t.Fatal(err)
		}
	}
	joiner := startShard(t, "s3")
	resJoin, err := rt.Join(context.Background(), Shard{Name: "s3", URL: joiner.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if resJoin.Moved == 0 || len(resJoin.ReleaseErrors) != 0 {
		t.Fatalf("join moved %d traces, release errors %v", resJoin.Moved, resJoin.ReleaseErrors)
	}
	if _, err := joiner.sys.CheckAll(); err != nil {
		t.Fatal(err)
	}
	code, body := rdo(t, rt, http.MethodGet, "/dashboard", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/dashboard: %d %s", code, body)
	}
	var kpis []api.KPI
	if err := json.Unmarshal(body, &kpis); err != nil {
		t.Fatalf("dashboard is not a KPI array: %v: %s", err, body)
	}
	if len(kpis) == 0 {
		t.Fatal("empty dashboard")
	}
	for _, k := range kpis {
		if k.Total != len(res.Truth) {
			t.Errorf("control %s counts %d traces after a join that moved %d, want %d",
				k.ControlID, k.Total, resJoin.Moved, len(res.Truth))
		}
	}
}

// TestShedOutlivesRingSwap pins the cutover ordering: between the tail
// export and the ring swap, a write to a moved trace must still shed.
// This is exactly the window where lifting the shed early would route
// the write via the OLD ring to a source shard that is about to
// tombstone everything it shipped — silently losing an acked write.
func TestShedOutlivesRingSwap(t *testing.T) {
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
	target := moving[0]
	mk := func(rec string) []events.AppEvent {
		return []events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: target,
			Timestamp: time.Unix(1700000300, 0),
			Payload:   map[string]string{"recordId": rec, "name": "W", "email": "w@x"}}}
	}
	hookRan := false
	rt.testHookPreSwap = func() {
		hookRan = true
		code, body := rdo(t, rt, http.MethodPost, "/events", toWire(mk("p-window-"+target)), nil)
		if code != http.StatusServiceUnavailable {
			t.Errorf("write in the tail→swap window answered %d (%s), want 503: the shed was lifted before the ring swap",
				code, body)
		}
	}
	joiner := startShard(t, "s3")
	if _, err := rt.Join(context.Background(), Shard{Name: "s3", URL: joiner.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("pre-swap hook never ran")
	}
	// After the join the same write goes through — to the joiner.
	before := len(joiner.sys.Store.RowsForApp(target))
	ingestVia(t, rt, mk("p-after-"+target), "")
	if after := len(joiner.sys.Store.RowsForApp(target)); after != before+1 {
		t.Fatalf("post-join write: joiner rows %d -> %d, want +1", before, after)
	}
}

// TestClusterLeave: a shard drains gracefully; its traces scatter to
// the survivors under the shrunk ring and it ends up empty.
func TestClusterLeave(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2", "s3")
	_, res := simEvents(t, 24)
	ingestVia(t, rt, res.Events, "")
	apps := traceIDs(res)

	leaver := shards["s2"]
	held := leaver.sys.Store.AppIDs()
	if len(held) == 0 {
		t.Fatal("leaver holds nothing; pick a different shard")
	}
	resLeave, err := rt.Leave(context.Background(), "s2")
	if err != nil {
		t.Fatal(err)
	}
	if resLeave.Moved != len(held) {
		t.Fatalf("leave moved %d, leaver held %d", resLeave.Moved, len(held))
	}
	if len(resLeave.ReleaseErrors) != 0 {
		t.Fatalf("release errors: %v", resLeave.ReleaseErrors)
	}
	if rest := leaver.sys.Store.AppIDs(); len(rest) != 0 {
		t.Fatalf("leaver still holds %v", rest)
	}
	newRing := rt.RingSnapshot()
	if newRing.Index("s2") >= 0 {
		t.Fatal("leaver still on the ring")
	}
	// Every former trace serves from its new owner.
	assertClusterServes(t, rt, apps)
	for _, app := range held {
		owner := newRing.OwnerName(app)
		found := false
		for _, a := range shards[owner].sys.Store.AppIDs() {
			if a == app {
				found = true
			}
		}
		if !found {
			t.Fatalf("moved trace %s not on its new owner %s", app, owner)
		}
	}
}

// TestClusterForceRemove: a dead shard is cut from the ring without
// handoff; its range 404s/503s but the survivors keep serving.
func TestClusterForceRemove(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2", "s3")
	_, res := simEvents(t, 12)
	ingestVia(t, rt, res.Events, "")
	apps := traceIDs(res)
	oldRing := rt.RingSnapshot()

	shards["s3"].srv.Close()
	if err := rt.ForceRemove("s3"); err != nil {
		t.Fatal(err)
	}
	newRing := rt.RingSnapshot()
	if newRing.Index("s3") >= 0 {
		t.Fatal("dead shard still on the ring")
	}
	// Traces that lived on the survivors are still served; the dead
	// shard's traces are gone (their new owners never got the data).
	for _, app := range apps {
		code, _ := rdo(t, rt, http.MethodGet, "/graph?app="+app, nil, nil)
		if oldRing.OwnerName(app) == "s3" {
			if code == http.StatusServiceUnavailable {
				t.Fatalf("dead range must not 503 after removal (got %d for %s): its new owner just has no data", code, app)
			}
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("surviving trace %s: %d", app, code)
		}
	}
	// Ingest into the reassigned range works again (fresh trace state).
	var reassigned string
	for _, app := range apps {
		if oldRing.OwnerName(app) == "s3" {
			reassigned = app
			break
		}
	}
	if reassigned == "" {
		t.Skip("no trace landed on the removed shard")
	}
	ingestVia(t, rt, []events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: reassigned,
		Timestamp: time.Unix(1700000200, 0),
		Payload:   map[string]string{"recordId": "p-fr-" + reassigned, "name": "R", "email": "r@x"}}}, "")
}

// TestJoinValidation: duplicate names and missing URLs are rejected
// before any data moves.
func TestJoinValidation(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	if _, err := rt.Join(context.Background(), Shard{Name: "s1", URL: shards["s1"].srv.URL}); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if _, err := rt.Join(context.Background(), Shard{Name: "s9"}); err == nil {
		t.Fatal("join without URL accepted")
	}
	if _, err := rt.Leave(context.Background(), "ghost"); err == nil {
		t.Fatal("leave of unknown shard accepted")
	}
	if err := rt.ForceRemove("ghost"); err == nil {
		t.Fatal("force-remove of unknown shard accepted")
	}
}

// TestRouterJoinLeaveOverHTTP drives the router's own /cluster/join and
// /cluster/leave routes through a listener, as provrouter serves them: a
// POSTed join moves the ring's share of the traces to the new shard and
// every trace stays readable through the router; a GET is 405 and a body
// that is not JSON 400; a forced leave cuts the shard from the ring.
func TestRouterJoinLeaveOverHTTP(t *testing.T) {
	rt, _ := startCluster(t, "s1", "s2")
	srv := httptest.NewServer(rt)
	defer srv.Close()
	_, res := simEvents(t, 24)
	ingestVia(t, rt, res.Events, "")
	apps := traceIDs(res)

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	for _, path := range []string{"/cluster/join", "/cluster/leave"} {
		if code, body := rdoURL(t, srv.URL, http.MethodGet, path); code != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d %s, want 405", path, code, body)
		}
		if code, body := post(path, "{not json"); code != http.StatusBadRequest {
			t.Fatalf("POST %s with a malformed body = %d %s, want 400", path, code, body)
		}
	}

	oldRing := rt.RingSnapshot()
	joiner := startShard(t, "s3")
	code, body := post("/cluster/join", string(mustJSON(t, Shard{Name: "s3", URL: joiner.srv.URL})))
	if code != http.StatusOK {
		t.Fatalf("POST /cluster/join = %d %s", code, body)
	}
	var joined RebalanceResult
	if err := json.Unmarshal(body, &joined); err != nil {
		t.Fatal(err)
	}
	wantMoved := Moved(oldRing, rt.RingSnapshot(), apps)
	if len(wantMoved) == 0 || joined.Moved != len(wantMoved) || len(joined.ReleaseErrors) != 0 {
		t.Fatalf("join over HTTP = %+v, the ring moved %d traces", joined, len(wantMoved))
	}
	got := joiner.sys.Store.AppIDs()
	sort.Strings(got)
	sort.Strings(wantMoved)
	if fmt.Sprint(got) != fmt.Sprint(wantMoved) {
		t.Fatalf("joiner holds %v, want %v", got, wantMoved)
	}
	for _, app := range apps {
		if code, body := rdoURL(t, srv.URL, http.MethodGet, "/graph?app="+app); code != http.StatusOK || !strings.Contains(string(body), app) {
			t.Fatalf("GET /graph?app=%s through the router after the join = %d %s", app, code, body)
		}
	}

	code, body = post("/cluster/leave", `{"name":"s3","force":true}`)
	var left struct {
		Removed string `json:"removed"`
		Forced  bool   `json:"forced"`
	}
	if err := json.Unmarshal(body, &left); code != http.StatusOK || err != nil || left.Removed != "s3" || !left.Forced {
		t.Fatalf("POST /cluster/leave forced = %d %s", code, body)
	}
	if rt.RingSnapshot().Index("s3") >= 0 {
		t.Fatal("s3 still on the ring after a forced leave")
	}
	if code, body := post("/cluster/leave", `{"name":"s3","force":true}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("forced leave of a shard not on the ring = %d %s, want 422", code, body)
	}
}
