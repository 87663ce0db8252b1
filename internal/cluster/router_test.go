package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/workload"
)

// testShard is one in-process provd node: a full core.System behind the
// real HTTP API, served over a real listener so the router's client path
// is exercised end to end.
type testShard struct {
	name string
	sys  *core.System
	srv  *httptest.Server
}

func startShard(t testing.TB, name string) *testShard {
	t.Helper()
	sh := startShardWith(t, core.Config{Dir: t.TempDir()})
	sh.name = name
	return sh
}

// startShardWith is startShard with the node's configuration spelled out
// and no name (routerOver names it).
func startShardWith(t testing.TB, cfg core.Config) *testShard {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(sys, false))
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})
	return &testShard{sys: sys, srv: srv}
}

func startCluster(t testing.TB, names ...string) (*Router, map[string]*testShard) {
	t.Helper()
	shards := make(map[string]*testShard, len(names))
	specs := make([]Shard, 0, len(names))
	for _, n := range names {
		sh := startShard(t, n)
		shards[n] = sh
		specs = append(specs, Shard{Name: n, URL: sh.srv.URL})
	}
	rt, err := NewRouter(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt, shards
}

// rdo drives the router directly (no listener needed on the router side).
func rdo(t testing.TB, rt *Router, method, path string, body any, hdr map[string]string) (int, []byte) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rdr)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func toWire(evs []events.AppEvent) []map[string]any {
	out := make([]map[string]any, len(evs))
	for i, ev := range evs {
		out[i] = map[string]any{
			"source": ev.Source, "type": ev.Type, "appId": ev.AppID,
			"timestamp": ev.Timestamp, "payload": ev.Payload,
		}
	}
	return out
}

// ingestVia posts one batch through the router and waits until every
// shard applied its part.
func ingestVia(t testing.TB, rt *Router, evs []events.AppEvent, key string) map[string]any {
	t.Helper()
	hdr := map[string]string{}
	if key != "" {
		hdr["Ingest-Key"] = key
	}
	code, body := rdo(t, rt, http.MethodPost, "/events", toWire(evs), hdr)
	if code != http.StatusAccepted {
		t.Fatalf("router ingest: %d %s", code, body)
	}
	var ack struct {
		Token  string `json:"token"`
		Events int    `json:"events"`
		Shards int    `json:"shards"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Token == "" {
		t.Fatalf("composite ack: %v (%s)", err, body)
	}
	if ack.Events != len(evs) {
		t.Fatalf("ack events = %d, want %d", ack.Events, len(evs))
	}
	return awaitAppliedVia(t, rt, ack.Token)
}

func awaitAppliedVia(t testing.TB, rt *Router, token string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := rdo(t, rt, http.MethodGet, "/ingest/ack?token="+token, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("ack poll: %d %s", code, body)
		}
		var st map[string]any
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st["state"] == "applied" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never applied: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func simEvents(t testing.TB, traces int) (*workload.Domain, *workload.SimResult) {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	return d, d.Simulate(workload.SimOptions{Seed: 7, Traces: traces, ViolationRate: 0.3, Visibility: 1.0})
}

func traceIDs(res *workload.SimResult) []string {
	ids := make([]string, 0, len(res.Truth))
	for app := range res.Truth {
		ids = append(ids, app)
	}
	sort.Strings(ids)
	return ids
}

// TestRouterIngestFanout: one client batch splits by ring owner, every
// shard holds exactly its own key range, and every trace reads back
// through the router.
func TestRouterIngestFanout(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 24)
	ingestVia(t, rt, res.Events, "batch-1")

	ring := rt.RingSnapshot()
	apps := traceIDs(res)
	byOwner := map[string]map[string]bool{}
	for _, app := range apps {
		o := ring.OwnerName(app)
		if byOwner[o] == nil {
			byOwner[o] = map[string]bool{}
		}
		byOwner[o][app] = true
	}
	if len(byOwner) != 2 {
		t.Fatalf("24 traces landed on %d shards; hash ring is broken", len(byOwner))
	}
	for name, sh := range shards {
		for _, app := range sh.sys.Store.AppIDs() {
			if !byOwner[name][app] {
				t.Fatalf("shard %s holds trace %s owned by %s", name, app, ring.OwnerName(app))
			}
		}
		if got, want := len(sh.sys.Store.AppIDs()), len(byOwner[name]); got != want {
			t.Fatalf("shard %s holds %d traces, ring assigns %d", name, got, want)
		}
	}
	// Reads through the router reach the owner transparently.
	for _, app := range apps {
		code, body := rdo(t, rt, http.MethodGet, "/graph?app="+app, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("graph %s: %d %s", app, code, body)
		}
		var g struct {
			Nodes []any `json:"nodes"`
		}
		if err := json.Unmarshal(body, &g); err != nil || len(g.Nodes) == 0 {
			t.Fatalf("graph %s empty through router: %s", app, body)
		}
	}
	// /traces scatter-gathers the union.
	code, body := rdo(t, rt, http.MethodGet, "/traces", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/traces: %d %s", code, body)
	}
	var all []string
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	sort.Strings(all)
	if fmt.Sprint(all) != fmt.Sprint(apps) {
		t.Fatalf("cluster /traces = %v, want %v", all, apps)
	}
}

// TestRouterScatterStats: the merged /stats document sums counters
// across shards and reports who answered.
func TestRouterScatterStats(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 16)
	ingestVia(t, rt, res.Events, "")

	code, body := rdo(t, rt, http.MethodGet, "/stats", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	wantTraces := 0
	for _, sh := range shards {
		wantTraces += len(sh.sys.Store.AppIDs())
	}
	if got := int(st["traces"].(float64)); got != wantTraces {
		t.Fatalf("merged traces = %d, want %d", got, wantTraces)
	}
	env := st["cluster"].(map[string]any)
	if resp := env["responded"].([]any); len(resp) != 2 {
		t.Fatalf("responded = %v", resp)
	}
}

// TestRouterDashboardMerge: /dashboard through the router keeps the
// single-node shape (a KPI array) with per-control verdict counts
// summed across shards and rates recomputed from the merged counts.
func TestRouterDashboardMerge(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 16)
	ingestVia(t, rt, res.Events, "")
	want := map[string]api.KPI{}
	for _, sh := range shards {
		if _, err := sh.sys.CheckAll(); err != nil {
			t.Fatal(err)
		}
		code, body := rdoURL(t, sh.srv.URL, http.MethodGet, "/dashboard")
		if code != http.StatusOK {
			t.Fatalf("shard dashboard: %d %s", code, body)
		}
		var rows []api.KPI
		if err := json.Unmarshal(body, &rows); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			m := want[row.ControlID]
			m.ControlID = row.ControlID
			m.Total += row.Total
			m.Satisfied += row.Satisfied
			m.Violated += row.Violated
			m.Indeterminate += row.Indeterminate
			m.NotApplicable += row.NotApplicable
			want[row.ControlID] = m
		}
	}
	code, body := rdo(t, rt, http.MethodGet, "/dashboard", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/dashboard: %d %s", code, body)
	}
	var merged []api.KPI
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatalf("dashboard is not a KPI array: %v: %s", err, body)
	}
	if len(merged) == 0 || len(merged) != len(want) {
		t.Fatalf("merged %d controls, want %d", len(merged), len(want))
	}
	for _, row := range merged {
		w := want[row.ControlID]
		if row.Total != w.Total || row.Satisfied != w.Satisfied ||
			row.Violated != w.Violated || row.Indeterminate != w.Indeterminate ||
			row.NotApplicable != w.NotApplicable {
			t.Fatalf("control %s merged %+v, want counts of %+v", row.ControlID, row, w)
		}
		if w.Total > 0 {
			wantDef := float64(w.Satisfied+w.Violated) / float64(w.Total)
			if diff := row.DefiniteRate - wantDef; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("control %s DefiniteRate %v, want %v", row.ControlID, row.DefiniteRate, wantDef)
			}
		}
	}
}

// rdoURL does one request against a live base URL (not the router mux).
func rdoURL(t testing.TB, base, method, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRouterCompliance: cross-trace compliance scatter-gathers every
// shard's verdicts; single-trace goes to the owner only.
func TestRouterCompliance(t *testing.T) {
	rt, _ := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 12)
	ingestVia(t, rt, res.Events, "")
	apps := traceIDs(res)

	code, body := rdo(t, rt, http.MethodGet, "/compliance", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/compliance: %d %s", code, body)
	}
	var outcomes []map[string]any
	if err := json.Unmarshal(body, &outcomes); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range outcomes {
		seen[o["appId"].(string)] = true
	}
	for _, app := range apps {
		if !seen[app] {
			t.Fatalf("cluster compliance missing trace %s", app)
		}
	}
	// Single-trace form answers for that trace only.
	code, body = rdo(t, rt, http.MethodGet, "/compliance?app="+apps[0], nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/compliance?app: %d %s", code, body)
	}
	outcomes = nil
	if err := json.Unmarshal(body, &outcomes); err != nil || len(outcomes) == 0 {
		t.Fatalf("single-trace compliance: %v %s", err, body)
	}
	for _, o := range outcomes {
		if o["appId"] != apps[0] {
			t.Fatalf("owner proxy leaked outcome for %v", o["appId"])
		}
	}
}

// TestRouterEventErrorRemap: a bad event's error index refers to the
// CLIENT batch position, not its position inside the shard part.
func TestRouterEventErrorRemap(t *testing.T) {
	rt, _ := startCluster(t, "s1", "s2")
	ring := rt.RingSnapshot()
	// Two traces on different shards, bad event sandwiched at client
	// index 1 on whichever trace comes second in part order.
	appA, appB := pickSplitPair(ring)
	mk := func(app, rec string, payload map[string]string) events.AppEvent {
		p := map[string]string{"recordId": rec}
		for k, v := range payload {
			p[k] = v
		}
		return events.AppEvent{Source: "hrdir", Type: "person.observed", AppID: app,
			Timestamp: time.Unix(1700000000, 0), Payload: p}
	}
	batch := []events.AppEvent{
		mk(appA, "p-a-0", map[string]string{"name": "Ann", "email": "ann@x"}),
		mk(appB, "p-b-0", nil), // missing required name/email -> event error
		mk(appB, "p-b-1", map[string]string{"name": "Bob", "email": "bob@x"}),
	}
	st := ingestVia(t, rt, batch, "remap-1")
	raw, ok := st["eventErrors"].([]any)
	if !ok || len(raw) != 1 {
		t.Fatalf("eventErrors = %v, want exactly 1", st["eventErrors"])
	}
	ee := raw[0].(map[string]any)
	if int(ee["index"].(float64)) != 1 {
		t.Fatalf("event error index = %v, want client position 1", ee["index"])
	}
	if ee["shard"] != ring.OwnerName(appB) {
		t.Fatalf("event error shard = %v, want %s", ee["shard"], ring.OwnerName(appB))
	}
}

// pickSplitPair finds two keys with different ring owners.
func pickSplitPair(ring *Ring) (string, string) {
	first := fmt.Sprintf("App%03d", 0)
	owner := ring.OwnerName(first)
	for i := 1; ; i++ {
		k := fmt.Sprintf("App%03d", i)
		if ring.OwnerName(k) != owner {
			return first, k
		}
	}
}

// TestRouterDeadShardSheds: killing one shard 503s only the traces in
// its range; the rest of the cluster keeps ingesting and serving.
func TestRouterDeadShardSheds(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2", "s3")
	ring := rt.RingSnapshot()
	deadName := "s2"
	shards[deadName].srv.Close()

	var deadApp, liveApp string
	for i := 0; deadApp == "" || liveApp == ""; i++ {
		k := fmt.Sprintf("App%03d", i)
		if ring.OwnerName(k) == deadName {
			if deadApp == "" {
				deadApp = k
			}
		} else if liveApp == "" {
			liveApp = k
		}
	}
	mk := func(app string) []events.AppEvent {
		return []events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: app,
			Timestamp: time.Unix(1700000000, 0),
			Payload:   map[string]string{"recordId": "p-" + app, "name": "N", "email": "e@x"}}}
	}
	// Batch touching the dead range: 503 with a Retry-After hint.
	req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(mustJSON(t, toWire(mk(deadApp)))))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead-range ingest: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Batch for a live shard is untouched by the failure.
	ingestVia(t, rt, mk(liveApp), "live-1")

	// Reads: the dead range degrades to the successor shard (owner-proxied
	// reads retry once around the ring), which answers with its own — here
	// empty — view instead of a 503. Live range serves normally.
	if code, _ := rdo(t, rt, http.MethodGet, "/graph?app="+deadApp, nil, nil); code != http.StatusOK {
		t.Fatalf("dead-range read: %d, want 200 from successor", code)
	}
	if code, body := rdo(t, rt, http.MethodGet, "/graph?app="+liveApp, nil, nil); code != http.StatusOK {
		t.Fatalf("live-range read: %d %s", code, body)
	}
	// Scatter endpoints degrade to the survivors and say so.
	code, body := rdo(t, rt, http.MethodGet, "/stats", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/stats with dead shard: %d %s", code, body)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	env := st["cluster"].(map[string]any)
	if len(env["responded"].([]any)) != 2 {
		t.Fatalf("responded = %v, want the 2 survivors", env["responded"])
	}
	if env["shardErrors"].(map[string]any)[deadName] == nil {
		t.Fatalf("shardErrors missing %s: %v", deadName, env["shardErrors"])
	}
	// /cluster marks it unhealthy.
	code, body = rdo(t, rt, http.MethodGet, "/cluster", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/cluster: %d", code)
	}
	var topo struct {
		Shards []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &topo); err != nil {
		t.Fatal(err)
	}
	for _, sh := range topo.Shards {
		if sh.Healthy == (sh.Name == deadName) {
			t.Fatalf("health of %s reported %v", sh.Name, sh.Healthy)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRouterControlsBroadcast: deploying a control through the router
// lands it on every shard; removing removes it everywhere.
func TestRouterControlsBroadcast(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	ctl := d.Controls[0]
	code, body := rdo(t, rt, http.MethodPost, "/controls",
		map[string]string{"id": "bcast-1", "name": "Broadcast test", "text": ctl.Text}, nil)
	if code != http.StatusOK {
		t.Fatalf("deploy via router: %d %s", code, body)
	}
	for name, sh := range shards {
		found := false
		for _, cp := range sh.sys.Registry.List() {
			if cp.ID == "bcast-1" {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %s missing broadcast control", name)
		}
	}
	if code, body := rdo(t, rt, http.MethodDelete, "/controls?id=bcast-1", nil, nil); code != http.StatusOK {
		t.Fatalf("remove via router: %d %s", code, body)
	}
	for name, sh := range shards {
		for _, cp := range sh.sys.Registry.List() {
			if cp.ID == "bcast-1" {
				t.Fatalf("shard %s still has removed control", name)
			}
		}
	}
}

// TestRouterAckEviction: the composite-ack table is bounded FIFO;
// evicted tokens 404 like a restarted gateway.
func TestRouterAckEviction(t *testing.T) {
	rt, _ := startCluster(t, "s1")
	rt.SetAckCap(1)
	mk := func(i int) []events.AppEvent {
		return []events.AppEvent{{Source: "hrdir", Type: "person.observed", AppID: fmt.Sprintf("Ev%d", i),
			Timestamp: time.Unix(1700000000, 0),
			Payload:   map[string]string{"recordId": fmt.Sprintf("p-ev-%d", i), "name": "N", "email": "e@x"}}}
	}
	code, body := rdo(t, rt, http.MethodPost, "/events", toWire(mk(1)), nil)
	if code != http.StatusAccepted {
		t.Fatalf("ingest 1: %d %s", code, body)
	}
	var first struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if code, _ = rdo(t, rt, http.MethodPost, "/events", toWire(mk(2)), nil); code != http.StatusAccepted {
		t.Fatalf("ingest 2: %d", code)
	}
	if code, _ = rdo(t, rt, http.MethodGet, "/ingest/ack?token="+first.Token, nil, nil); code != http.StatusNotFound {
		t.Fatalf("evicted token poll: %d, want 404", code)
	}
}

// TestScatterConcatPartialFailure: with one shard dead, the array
// endpoints still answer 200 from the survivors but mark the response
// partial via X-Shard-Errors, so a degraded result is distinguishable
// from a complete one.
func TestScatterConcatPartialFailure(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2", "s3")
	_, res := simEvents(t, 12)
	ingestVia(t, rt, res.Events, "")
	ring := rt.RingSnapshot()
	dead := "s2"
	shards[dead].srv.Close()

	req := httptest.NewRequest(http.MethodGet, "/traces", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces with one dead shard: %d %s", rec.Code, rec.Body.String())
	}
	hdr := rec.Header().Get("X-Shard-Errors")
	if hdr == "" {
		t.Fatal("partial scatter answered 200 without X-Shard-Errors")
	}
	var shardErrs map[string]string
	if err := json.Unmarshal([]byte(hdr), &shardErrs); err != nil {
		t.Fatalf("X-Shard-Errors is not a JSON object: %v (%s)", err, hdr)
	}
	if shardErrs[dead] == "" {
		t.Fatalf("X-Shard-Errors missing dead shard %s: %v", dead, shardErrs)
	}
	var got []string
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, app := range got {
		have[app] = true
	}
	for _, app := range traceIDs(res) {
		if owner := ring.OwnerName(app); owner != dead && !have[app] {
			t.Fatalf("survivor-owned trace %s (on %s) missing from partial result", app, owner)
		}
	}
}

// TestScatterConcatAllBadBodies: when every shard responds but none
// produces a parseable array, the endpoint answers 503, not an empty
// 200 masquerading as "no data".
func TestScatterConcatAllBadBodies(t *testing.T) {
	fake := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"not":"an array"}`)
		}))
	}
	a, b := fake(), fake()
	defer a.Close()
	defer b.Close()
	rt, err := NewRouter([]Shard{{Name: "a", URL: a.URL}, {Name: "b", URL: b.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	code, body := rdo(t, rt, http.MethodGet, "/traces", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all-garbage scatter: %d %s, want 503", code, body)
	}
}

// TestScatterStatsKeepsQueryString: /stats scatters with the query
// string intact, like the other scatter endpoints.
func TestScatterStatsKeepsQueryString(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	fake := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.URL.RequestURI())
			mu.Unlock()
			fmt.Fprint(w, `{}`)
		}))
	}
	a, b := fake(), fake()
	defer a.Close()
	defer b.Close()
	rt, err := NewRouter([]Shard{{Name: "a", URL: a.URL}, {Name: "b", URL: b.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := rdo(t, rt, http.MethodGet, "/stats?window=9", nil, nil); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("scatter reached %d shards, want 2", len(seen))
	}
	for _, uri := range seen {
		if uri != "/stats?window=9" {
			t.Fatalf("shard saw %q; query string dropped by the router", uri)
		}
	}
}

// TestControlsListFallsBackPastDeadShard: requests any shard can serve
// (control list, app-less explain) must not pin to the first ring
// member — with it dead, the router tries the next one.
func TestControlsListFallsBackPastDeadShard(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	first := rt.RingSnapshot().Names()[0]
	shards[first].srv.Close()

	code, body := rdo(t, rt, http.MethodGet, "/controls", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("controls list with first ring member dead: %d %s", code, body)
	}
	var list []any
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("controls list: %v (%s)", err, body)
	}
	if code, body := rdo(t, rt, http.MethodGet, "/query?explain=1", nil, nil); code == http.StatusServiceUnavailable {
		t.Fatalf("app-less explain still pinned to the dead shard: %d %s", code, body)
	}
}

// TestRouterIngestKeyDedup: retrying a batch under the same Ingest-Key
// dedups on the shards (derived part keys survive the split).
func TestRouterIngestKeyDedup(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	_, res := simEvents(t, 8)
	ingestVia(t, rt, res.Events, "retry-me")
	rows := 0
	for _, sh := range shards {
		rows += sh.sys.Store.Stats().Rows
	}
	// Same key, same batch: every part must dedup, no new rows.
	st := ingestVia(t, rt, res.Events, "retry-me")
	if st["state"] != "applied" {
		t.Fatalf("redelivered batch state = %v", st["state"])
	}
	rows2 := 0
	for _, sh := range shards {
		rows2 += sh.sys.Store.Stats().Rows
	}
	if rows2 != rows {
		t.Fatalf("redelivery grew the store: %d -> %d rows", rows, rows2)
	}
}

// TestRecorderDrainsThroughRouter: the spooling recorder stops at
// "applied" and re-sends a batch answered "pending" under the same
// Ingest-Key. The composite 202 must therefore fold its parts' states the
// way /ingest/ack does; a 202 that always says "pending" keeps the
// recorder re-sending forever and Close never returns. With "Prefer:
// wait" forwarded to the parts, every batch is sent once and answered
// applied: no re-send polls it.
func TestRecorderDrainsThroughRouter(t *testing.T) {
	rt, shards := startCluster(t, "s1", "s2")
	front := httptest.NewServer(rt)
	defer front.Close()
	_, res := simEvents(t, 12)

	rec := ingest.NewRecorder(ingest.RecorderConfig{MaxBatch: 16, FlushInterval: 5 * time.Millisecond},
		&ingest.HTTPSender{API: api.Client{Base: front.URL}})
	for _, ev := range res.Events {
		if err := rec.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- rec.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("recorder never drained through the router: %+v", rec.Stats())
	}
	st := rec.Stats()
	if want := uint64((len(res.Events) + 15) / 16); st.Applied != want || st.EventErrors != 0 {
		t.Fatalf("recorder applied %d batches with %d event errors, want %d and 0", st.Applied, st.EventErrors, want)
	}
	if st.BatchesSent != st.Applied || st.Polls != 0 {
		t.Fatalf("recorder sent %d batches and polled %d times for %d applied, want one send each and no polls",
			st.BatchesSent, st.Polls, st.Applied)
	}
	for name, sh := range shards {
		if sh.sys.Store.Stats().Rows == 0 {
			t.Errorf("shard %s holds no rows: the batches never split", name)
		}
	}
}
