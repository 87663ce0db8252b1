package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/workload"
)

func testServer(t *testing.T) (*Server, *workload.Domain) {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return NewServer(sys, false), d
}

func do(t *testing.T, s *Server, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
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
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func ingestSim(t *testing.T, s *Server, d *workload.Domain, traces int) *workload.SimResult {
	t.Helper()
	res := d.Simulate(workload.SimOptions{Seed: 3, Traces: traces, ViolationRate: 0.4, Visibility: 1.0})
	rec, body := do(t, s, http.MethodPost, "/events", res.Events)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", rec.Code, body)
	}
	var ack struct {
		Token string `json:"token"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Token == "" {
		t.Fatalf("admission ack: %v (%s)", err, body)
	}
	awaitApplied(t, s, ack.Token)
	return res
}

// awaitApplied polls /ingest/ack until the admitted batch is applied —
// the async analogue of the old synchronous 200.
func awaitApplied(t *testing.T, s *Server, token string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, body := do(t, s, http.MethodGet, "/ingest/ack?token="+token, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("ack poll: %d %s", rec.Code, body)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "applied" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never applied", token)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerIngestAndCompliance(t *testing.T) {
	s, d := testServer(t)
	res := ingestSim(t, s, d, 10)

	rec, body := do(t, s, http.MethodGet, "/compliance", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("compliance: %d %s", rec.Code, body)
	}
	var outcomes []api.Outcome
	if err := json.Unmarshal(body, &outcomes); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 10*len(d.Controls) {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	// Verdicts agree with ground truth.
	for _, o := range outcomes {
		truth := res.Truth[o.AppID]
		want := "satisfied"
		if truth.Violation && truth.ControlID == o.Control {
			want = "violated"
		}
		if o.Verdict != want {
			t.Errorf("%s/%s verdict = %s, want %s", o.AppID, o.Control, o.Verdict, want)
		}
	}

	// Single-trace query.
	app := outcomes[0].AppID
	rec, body = do(t, s, http.MethodGet, "/compliance?app="+app, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("compliance one: %d", rec.Code)
	}
	if err := json.Unmarshal(body, &outcomes); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(d.Controls) {
		t.Fatalf("one-trace outcomes = %d", len(outcomes))
	}
}

func TestServerControlsCRUD(t *testing.T) {
	s, d := testServer(t)
	rec, body := do(t, s, http.MethodGet, "/controls", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	var list []api.Control
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(d.Controls) {
		t.Fatalf("controls = %d", len(list))
	}

	newCtl := api.Control{ID: "extra", Name: "Extra", Text: `
definitions
  set 'r' to a job requisition ;
if 'r' exists then the internal control is satisfied ;
`}
	rec, body = do(t, s, http.MethodPost, "/controls", newCtl)
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy: %d %s", rec.Code, body)
	}
	var got api.Control
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.ID != "extra" {
		t.Fatalf("deployed = %+v", got)
	}

	bad := api.Control{ID: "bad", Text: "if nonsense"}
	rec, _ = do(t, s, http.MethodPost, "/controls", bad)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad control status = %d", rec.Code)
	}

	rec, _ = do(t, s, http.MethodDelete, "/controls?id=extra", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec, _ = do(t, s, http.MethodDelete, "/controls?id=extra", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d", rec.Code)
	}
}

func TestServerGraphAndRows(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 3)
	app := "hiring-000000"

	rec, body := do(t, s, http.MethodGet, "/graph?app="+app, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("graph: %d %s", rec.Code, body)
	}
	var g api.Graph
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatalf("graph empty: %d nodes, %d edges", len(g.Nodes), len(g.Edges))
	}

	rec, body = do(t, s, http.MethodGet, "/rows?app="+app, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rows: %d", rec.Code)
	}
	if !strings.Contains(string(body), "ps:jobRequisition") {
		t.Fatalf("rows lack Table-1 XML: %s", body)
	}

	rec, _ = do(t, s, http.MethodGet, "/graph", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("graph without app: %d", rec.Code)
	}
}

func TestServerQueryAndExplain(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 5)

	rec, body := do(t, s, http.MethodGet,
		"/query?type=jobRequisition&field=reqID&value=REQ-hiring-000002", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, body)
	}
	var nodes []api.Node
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Type != "jobRequisition" {
		t.Fatalf("query result = %v", nodes)
	}

	rec, body = do(t, s, http.MethodGet,
		"/query?type=jobRequisition&field=reqID&value=x&explain=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d", rec.Code)
	}
	if !strings.Contains(string(body), "IndexScan") {
		t.Fatalf("explain = %s", body)
	}

	rec, _ = do(t, s, http.MethodGet, "/query?type=ghost", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query status = %d", rec.Code)
	}
}

func TestServerDashboardAndStats(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 8)
	if rec, body := do(t, s, http.MethodGet, "/compliance", nil); rec.Code != http.StatusOK {
		t.Fatalf("compliance: %d %s", rec.Code, body)
	}

	rec, body := do(t, s, http.MethodGet, "/dashboard", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("dashboard: %d", rec.Code)
	}
	var kpis []map[string]any
	if err := json.Unmarshal(body, &kpis); err != nil {
		t.Fatal(err)
	}
	if len(kpis) != len(d.Controls) {
		t.Fatalf("kpis = %d", len(kpis))
	}

	rec, body = do(t, s, http.MethodGet, "/violations?n=5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("violations: %d", rec.Code)
	}

	rec, body = do(t, s, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["domain"] != "hiring" {
		t.Fatalf("stats = %v", stats)
	}
	if seq, ok := stats["seq"].(float64); !ok || seq <= 0 {
		t.Fatalf("stats.seq = %v, want a positive commit sequence", stats["seq"])
	}
}

// TestServerTieringAndAsOf exercises the tiered-storage surface: tiering
// counters in /stats, the /segments listing, and ?asof= point-in-time
// reads on /graph and /compliance served from a sealed segment.
func TestServerTieringAndAsOf(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s := NewServer(sys, false)
	ingestSim(t, s, d, 3)
	app := "hiring-000000"
	sealSeq := sys.Store.Stats().Seq

	graphIDs := func(path string) []string {
		t.Helper()
		rec, body := do(t, s, http.MethodGet, path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, body)
		}
		var g struct {
			Nodes []struct {
				ID string `json:"id"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &g); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, len(g.Nodes))
		for _, n := range g.Nodes {
			ids = append(ids, n.ID)
		}
		sort.Strings(ids)
		return ids
	}
	verdicts := func(path string) string {
		t.Helper()
		rec, body := do(t, s, http.MethodGet, path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, body)
		}
		var out []api.Outcome
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, o := range out {
			fmt.Fprintf(&b, "%s=%s;", o.Control, o.Verdict)
		}
		return b.String()
	}

	liveGraph := graphIDs("/graph?app=" + app)
	liveVerdicts := verdicts("/compliance?app=" + app)
	if len(liveGraph) == 0 || liveVerdicts == "" {
		t.Fatalf("empty live reads: %v %q", liveGraph, liveVerdicts)
	}
	if err := sys.Store.DemoteTraces(app); err != nil {
		t.Fatal(err)
	}

	// The demoted trace reads identically at its seal point.
	asof := fmt.Sprintf("&asof=%d", sealSeq)
	if got := graphIDs("/graph?app=" + app + asof); !slicesEqual(got, liveGraph) {
		t.Fatalf("as-of graph = %v, want %v", got, liveGraph)
	}
	if got := verdicts("/compliance?app=" + app + asof); got != liveVerdicts {
		t.Fatalf("as-of verdicts = %q, want %q", got, liveVerdicts)
	}

	// Plain (non-asof) reads are cold-transparent too: the demoted trace
	// renders from its sealed segment instead of coming back empty.
	if got := graphIDs("/graph?app=" + app); !slicesEqual(got, liveGraph) {
		t.Fatalf("cold graph = %v, want %v", got, liveGraph)
	}
	if rec, body := do(t, s, http.MethodGet, "/graph.dot?app="+app, nil); rec.Code != http.StatusOK || !strings.Contains(string(body), app) {
		t.Fatalf("cold graph.dot: %d %.120s", rec.Code, body)
	}

	rec, body := do(t, s, http.MethodGet, "/segments", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("segments: %d %s", rec.Code, body)
	}
	var segs []map[string]any
	if err := json.Unmarshal(body, &segs); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0]["traces"].(float64) != 1 {
		t.Fatalf("segments = %s", body)
	}

	rec, body = do(t, s, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var stats struct {
		Tiering struct {
			Enabled      bool `json:"enabled"`
			Segments     int  `json:"segments"`
			SealedTraces int  `json:"sealed_traces"`
		} `json:"tiering"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Tiering.Enabled || stats.Tiering.Segments != 1 || stats.Tiering.SealedTraces != 1 {
		t.Fatalf("stats.tiering = %+v", stats.Tiering)
	}

	// Malformed and unanswerable as-of requests fail loudly.
	if rec, _ := do(t, s, http.MethodGet, "/graph?app="+app+"&asof=bogus", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus asof: %d", rec.Code)
	}
	if rec, _ := do(t, s, http.MethodGet, "/compliance?asof=1", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("asof without app: %d", rec.Code)
	}
	if rec, _ := do(t, s, http.MethodGet, "/graph?app=no-such-trace&asof=1", nil); rec.Code == http.StatusOK {
		t.Fatal("as-of read of an unknown trace succeeded")
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestServerMethodChecks(t *testing.T) {
	s, _ := testServer(t)
	if rec, _ := do(t, s, http.MethodGet, "/events", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /events = %d", rec.Code)
	}
	if rec, _ := do(t, s, http.MethodPut, "/controls", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /controls = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/events", strings.NewReader("not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d", rec.Code)
	}
}

func TestServerGraphDOT(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 2)
	rec, body := do(t, s, http.MethodGet, "/graph.dot?app=hiring-000000", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("graph.dot: %d %s", rec.Code, body)
	}
	if !strings.Contains(string(body), "digraph provenance") {
		t.Fatalf("dot body:\n%s", body)
	}
	if got := rec.Header().Get("Content-Type"); got != "text/vnd.graphviz" {
		t.Errorf("content type = %q", got)
	}
	rec, _ = do(t, s, http.MethodGet, "/graph.dot", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("graph.dot without app: %d", rec.Code)
	}
}

func TestServerReport(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 10)
	rec, body := do(t, s, http.MethodGet, "/report?findings=5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("report: %d %s", rec.Code, body)
	}
	out := string(body)
	for _, want := range []string{"COMPLIANCE AUDIT REPORT", "### control gm-approval", "satisfied"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("content type = %q", got)
	}
}

func TestServerQueryOrder(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 5)
	rec, body := do(t, s, http.MethodGet,
		"/query?type=jobRequisition&order=reqID&desc=1&limit=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ordered query: %d %s", rec.Code, body)
	}
	var nodes []api.Node
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Attrs["reqID"] < nodes[1].Attrs["reqID"] {
		t.Fatalf("descending order broken: %v", nodes)
	}
}

// TestServerConcurrentRequests exercises the HTTP layer under parallel
// ingest, checks and queries; the race detector guards soundness.
func TestServerConcurrentRequests(t *testing.T) {
	s, d := testServer(t)
	ingestSim(t, s, d, 10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			do(t, s, http.MethodGet, "/compliance", nil)
		}
	}()
	for i := 0; i < 20; i++ {
		do(t, s, http.MethodGet, "/dashboard", nil)
		do(t, s, http.MethodGet, "/stats", nil)
		do(t, s, http.MethodGet, "/query?type=jobRequisition", nil)
	}
	<-done
}

// doRaw posts a raw body, bypassing the JSON-marshalling helper.
func doRaw(t *testing.T, s *Server, path string, body []byte) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestServerEventsErrorHandling is the SYNCHRONOUS /events contract
// table (?sync=1, the pre-gateway protocol): malformed JSON is a 400, an
// oversized body is a 413, and a batch with failing events is a 422 that
// names each rejected event by index while the good events in the same
// batch stay recorded. TestServerAsyncIngestContract covers the async
// protocol.
func TestServerEventsErrorHandling(t *testing.T) {
	ts := func(sec int64) time.Time { return time.Unix(sec, 0).UTC() }
	goodReq := events.AppEvent{Source: "lombardi", Type: "requisition.submitted", AppID: "T1",
		Timestamp: ts(100), Payload: map[string]string{"recordId": "N1", "req": "REQ-1"}}
	noReqKey := events.AppEvent{Source: "lombardi", Type: "requisition.submitted", AppID: "T2",
		Timestamp: ts(101), Payload: map[string]string{"recordId": "N2"}}
	badCount := events.AppEvent{Source: "hrdb", Type: "candidates.found", AppID: "T1",
		Timestamp: ts(102), Payload: map[string]string{"recordId": "N3", "req": "REQ-1", "count": "many"}}
	goodApproval := events.AppEvent{Source: "mail", Type: "approval.recorded", AppID: "T1",
		Timestamp: ts(103), Payload: map[string]string{"recordId": "N4", "req": "REQ-1", "approved": "true"}}

	huge := events.AppEvent{Source: "lombardi", Type: "requisition.submitted", AppID: "T9",
		Payload: map[string]string{"recordId": "N9", "req": strings.Repeat("x", api.MaxEventBody+1)}}
	hugeRaw, err := json.Marshal([]events.AppEvent{huge})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		raw         []byte // used when batch is nil
		batch       []events.AppEvent
		wantCode    int
		wantIndices []int // expected eventErrors indices, nil = no body check
	}{
		{name: "malformed-json", raw: []byte(`{"not": "an array"`), wantCode: http.StatusBadRequest},
		{name: "wrong-shape", raw: []byte(`{"source": "lombardi"}`), wantCode: http.StatusBadRequest},
		{name: "oversized-body", raw: hugeRaw, wantCode: http.StatusRequestEntityTooLarge},
		{name: "clean-batch", batch: []events.AppEvent{goodReq}, wantCode: http.StatusOK},
		{name: "partial-batch", batch: []events.AppEvent{goodReq, noReqKey, badCount, goodApproval},
			wantCode: http.StatusUnprocessableEntity, wantIndices: []int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := testServer(t)
			var rec *httptest.ResponseRecorder
			var body []byte
			if tc.batch != nil {
				rec, body = do(t, s, http.MethodPost, "/events?sync=1", tc.batch)
			} else {
				rec, body = doRaw(t, s, "/events?sync=1", tc.raw)
			}
			if rec.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body: %s)", rec.Code, tc.wantCode, body)
			}
			if rec.Code != http.StatusOK {
				var errBody struct {
					Error       string `json:"error"`
					EventErrors []struct {
						Index int    `json:"index"`
						Error string `json:"error"`
					} `json:"eventErrors"`
				}
				if err := json.Unmarshal(body, &errBody); err != nil {
					t.Fatalf("error body is not JSON: %v (%s)", err, body)
				}
				if errBody.Error == "" {
					t.Fatalf("error body lacks message: %s", body)
				}
				if tc.wantIndices != nil {
					if len(errBody.EventErrors) != len(tc.wantIndices) {
						t.Fatalf("eventErrors = %s, want indices %v", body, tc.wantIndices)
					}
					for i, want := range tc.wantIndices {
						if errBody.EventErrors[i].Index != want {
							t.Fatalf("eventErrors[%d].index = %d, want %d", i, errBody.EventErrors[i].Index, want)
						}
						if errBody.EventErrors[i].Error == "" {
							t.Fatalf("eventErrors[%d] lacks a message", i)
						}
					}
				}
			}
			if tc.name == "partial-batch" {
				// The good events around the failures are durable.
				for _, id := range []string{"N1", "N4"} {
					if s.sys.Store.Node(id) == nil {
						t.Fatalf("good event %s was not recorded", id)
					}
				}
				if s.sys.Store.Node("N2") != nil || s.sys.Store.Node("N3") != nil {
					t.Fatal("rejected event was recorded anyway")
				}
			}
		})
	}
}

// TestServerStatsSnapshots pins the MVCC counters the /stats endpoint
// serves under "snapshots": live and moving after ingest and a read.
func TestServerStatsSnapshots(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s := NewServer(sys, false)
	ingestSim(t, s, d, 4)
	if rec, body := do(t, s, http.MethodGet, "/compliance", nil); rec.Code != http.StatusOK {
		t.Fatalf("compliance: %d %s", rec.Code, body)
	}

	rec, body := do(t, s, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var stats struct {
		Snapshots struct {
			Publishes   uint64
			ReaderLoads uint64
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body: %v (%s)", err, body)
	}
	if ss := stats.Snapshots; ss.Publishes == 0 || ss.ReaderLoads == 0 {
		t.Fatalf("live counters flat after ingest+compliance: %+v", ss)
	}
}

// TestServerAsyncIngestContract is the async /events protocol table: a
// clean batch is a 202 whose ack token reaches "applied"; a redelivered
// idempotency key gets the original ack back with deduped set; a batch
// the admission queues cannot hold is a 429 with a Retry-After header; a
// draining gateway is a 503; per-event rejections survive the async path
// and come back on the ack, indexed by the client batch's own positions.
func TestServerAsyncIngestContract(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{IngestShards: 1, IngestQueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s := NewServer(sys, false)

	ts := func(sec int64) time.Time { return time.Unix(sec, 0).UTC() }
	goodReq := events.AppEvent{Source: "lombardi", Type: "requisition.submitted", AppID: "T1",
		Timestamp: ts(100), Payload: map[string]string{"recordId": "N1", "req": "REQ-1"}}
	noReqKey := events.AppEvent{Source: "lombardi", Type: "requisition.submitted", AppID: "T2",
		Timestamp: ts(101), Payload: map[string]string{"recordId": "N2"}}
	badCount := events.AppEvent{Source: "hrdb", Type: "candidates.found", AppID: "T1",
		Timestamp: ts(102), Payload: map[string]string{"recordId": "N3", "req": "REQ-1", "count": "many"}}
	goodApproval := events.AppEvent{Source: "mail", Type: "approval.recorded", AppID: "T1",
		Timestamp: ts(103), Payload: map[string]string{"recordId": "N4", "req": "REQ-1", "approved": "true"}}

	post := func(key string, batch []events.AppEvent) (*httptest.ResponseRecorder, []byte) {
		t.Helper()
		raw, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(raw))
		if key != "" {
			req.Header.Set("Ingest-Key", key)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec, rec.Body.Bytes()
	}
	type ackJSON struct {
		Token       string `json:"token"`
		Key         string `json:"key"`
		State       string `json:"state"`
		Deduped     bool   `json:"deduped"`
		EventErrors []struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		} `json:"eventErrors"`
	}

	// Admission: 202 with a pollable token; the batch applies.
	rec, body := post("batch-1", []events.AppEvent{goodReq})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("clean batch = %d %s", rec.Code, body)
	}
	var first ackJSON
	if err := json.Unmarshal(body, &first); err != nil || first.Token == "" || first.Key != "batch-1" {
		t.Fatalf("ack = %s (err %v)", body, err)
	}
	awaitApplied(t, s, first.Token)
	if sys.Store.Node("N1") == nil {
		t.Fatal("applied batch not in store")
	}

	// Idempotent redelivery: same key, original ack, nothing re-ingested.
	rec, body = post("batch-1", []events.AppEvent{goodReq})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("redelivery = %d %s", rec.Code, body)
	}
	var again ackJSON
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.Token != first.Token {
		t.Fatalf("redelivery ack = %s, want deduped token %s", body, first.Token)
	}

	// Per-event errors survive the async path: admitted 202, failures
	// reported on the ack by client-batch index (1: missing required
	// field, 2: unparsable int), good neighbors recorded.
	rec, body = post("batch-2", []events.AppEvent{goodReq, noReqKey, badCount, goodApproval})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("partial batch = %d %s", rec.Code, body)
	}
	var partial ackJSON
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	awaitApplied(t, s, partial.Token)
	rec, body = do(t, s, http.MethodGet, "/ingest/ack?token="+partial.Token, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ack poll = %d", rec.Code)
	}
	var final ackJSON
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if len(final.EventErrors) != 2 || final.EventErrors[0].Index != 1 || final.EventErrors[1].Index != 2 {
		t.Fatalf("ack eventErrors = %s, want indices 1 and 2", body)
	}
	for _, e := range final.EventErrors {
		if e.Error == "" {
			t.Fatalf("eventError lacks a message: %s", body)
		}
	}
	if sys.Store.Node("N4") == nil {
		t.Fatal("good event N4 not recorded")
	}
	if sys.Store.Node("N2") != nil || sys.Store.Node("N3") != nil {
		t.Fatal("rejected event recorded anyway")
	}

	// Overload: a batch larger than the whole admission queue can never
	// be reserved — 429, Retry-After header, retryAfterMs body, and no
	// partial admission.
	over := make([]events.AppEvent, 5) // QueueDepth is 4
	for i := range over {
		e := goodReq
		e.AppID = "T-over"
		e.Payload = map[string]string{"recordId": fmt.Sprintf("OV%d", i), "req": "REQ-OV"}
		over[i] = e
	}
	rec, body = post("batch-over", over)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload = %d %s", rec.Code, body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	var overBody struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retryAfterMs"`
	}
	if err := json.Unmarshal(body, &overBody); err != nil || overBody.Error == "" || overBody.RetryAfterMS <= 0 {
		t.Fatalf("overload body = %s (err %v)", body, err)
	}
	if sys.Store.Node("OV0") != nil {
		t.Fatal("rejected batch partially admitted")
	}

	// Gateway counters on /ingest/stats.
	rec, body = do(t, s, http.MethodGet, "/ingest/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest stats = %d", rec.Code)
	}
	var istats struct {
		AdmittedBatches uint64 `json:"admittedBatches"`
		RejectedBatches uint64 `json:"rejectedBatches"`
		DedupedBatches  uint64 `json:"dedupedBatches"`
	}
	if err := json.Unmarshal(body, &istats); err != nil {
		t.Fatal(err)
	}
	if istats.AdmittedBatches != 2 || istats.RejectedBatches != 1 || istats.DedupedBatches != 1 {
		t.Fatalf("ingest stats = %s", body)
	}

	// Draining: 503 with a Retry-After.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sys.Gateway.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec, body = post("batch-late", []events.AppEvent{goodReq})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining = %d %s", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
}
