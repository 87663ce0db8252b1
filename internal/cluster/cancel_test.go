package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wedgedCluster is a two-shard cluster whose s2 accepts every connection
// and never answers — the failure a connection-refused test cannot model.
func wedgedCluster(t *testing.T) *Router {
	t.Helper()
	healthy := startShard(t, "s1")
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() {
		close(release) // before Close, which waits for in-flight handlers
		wedged.Close()
	})
	rt, err := NewRouter([]Shard{{Name: "s1", URL: healthy.srv.URL}, {Name: "s2", URL: wedged.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// ownedBy finds a trace ID the ring assigns to shard.
func ownedBy(t *testing.T, rt *Router, shard string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if app := fmt.Sprintf("wedge-%d", i); rt.RingSnapshot().OwnerName(app) == shard {
			return app
		}
	}
	t.Fatalf("no trace ID lands on %s", shard)
	return ""
}

// TestRouterCallsFollowRequestContext: every shard call runs under the
// inbound request's context, so a client that hangs up frees the handler
// at once instead of pinning it for the whole api.Timeout.
func TestRouterCallsFollowRequestContext(t *testing.T) {
	rt := wedgedCluster(t)
	token := rt.storeAck(&compositeAck{events: 1, parts: []ackPart{{shard: "s2", token: "tok", idx: []int{0}}}})
	event := fmt.Sprintf(`[{"source":"hrdir","type":"person.observed","appId":%q,"payload":{"recordId":"p-1"}}]`,
		ownedBy(t, rt, "s2"))

	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/stats", ""},
		{http.MethodGet, "/dashboard", ""},
		{http.MethodGet, "/ingest/ack?token=" + token, ""},
		{http.MethodPost, "/events", event},
	} {
		t.Run(tc.path, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				rt.ServeHTTP(httptest.NewRecorder(), req)
			}()
			select {
			case <-done:
				t.Fatal("handler returned while its shard was still wedged")
			case <-time.After(50 * time.Millisecond):
			}
			cancel()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("handler still waiting on the wedged shard 1s after its client hung up")
			}
		})
	}
}

// TestScatterReportsWedgedShard: once the call deadline passes, a scatter
// answers from the shards that did respond and names the one that did not
// — in the cluster envelope of an object answer, in X-Shard-Errors of an
// array answer.
func TestScatterReportsWedgedShard(t *testing.T) {
	rt := wedgedCluster(t)
	rt.http = &http.Client{Timeout: 150 * time.Millisecond}

	start := time.Now()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d %s", rec.Code, rec.Body)
	}
	var stats struct {
		Cluster struct {
			Responded   []string          `json:"responded"`
			ShardErrors map[string]string `json:"shardErrors"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Cluster.Responded) != 1 || stats.Cluster.Responded[0] != "s1" || stats.Cluster.ShardErrors["s2"] == "" {
		t.Fatalf("/stats cluster envelope = %+v, want s1 responded and s2 in shardErrors", stats.Cluster)
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dashboard", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/dashboard: %d %s", rec.Code, rec.Body)
	}
	var shardErrs map[string]string
	if err := json.Unmarshal([]byte(rec.Header().Get("X-Shard-Errors")), &shardErrs); err != nil || shardErrs["s2"] == "" {
		t.Fatalf("/dashboard X-Shard-Errors = %q (%v), want s2 reported", rec.Header().Get("X-Shard-Errors"), err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("two scatters over a wedged shard took %v; the deadline is 150ms each", took)
	}
}
