package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/workload"
)

// decode round-trips a literal through JSON so the merge sees exactly
// what the router sees (float64 numbers, map[string]any objects).
func decode(t *testing.T, s string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		t.Fatalf("bad fixture: %v", err)
	}
	return m
}

// TestMergeStatsTable is the scatter-gather merge table: counters sum,
// gauges and broadcast levels max, bools OR, strings first, objects
// recurse, arrays concatenate.
func TestMergeStatsTable(t *testing.T) {
	cases := []struct {
		name string
		a, b string
		want string
	}{
		{
			name: "counters sum",
			a:    `{"ingest":{"admittedEvents":10,"flushes":3}}`,
			b:    `{"ingest":{"admittedEvents":5,"flushes":4}}`,
			want: `{"ingest":{"admittedEvents":15,"flushes":7}}`,
		},
		{
			name: "gauges max",
			a:    `{"ingest":{"maxFlush":64,"maxQueuedEvents":100,"queueDepth":4096,"retryAfterMs":250}}`,
			b:    `{"ingest":{"maxFlush":80,"maxQueuedEvents":90,"queueDepth":4096,"retryAfterMs":500}}`,
			want: `{"ingest":{"maxFlush":80,"maxQueuedEvents":100,"queueDepth":4096,"retryAfterMs":500}}`,
		},
		{
			name: "seq is a gauge not a counter",
			a:    `{"seq":120}`,
			b:    `{"seq":95}`,
			want: `{"seq":120}`,
		},
		{
			name: "shadowed controls are broadcast, checks are tallies",
			a:    `{"shadow":{"controls":1,"checks":4}}`,
			b:    `{"shadow":{"controls":1,"checks":6}}`,
			want: `{"shadow":{"controls":1,"checks":10}}`,
		},
		{
			name: "bools OR",
			a:    `{"ingest":{"draining":false},"tiering":{"enabled":true}}`,
			b:    `{"ingest":{"draining":true},"tiering":{"enabled":true}}`,
			want: `{"ingest":{"draining":true},"tiering":{"enabled":true}}`,
		},
		{
			name: "strings first, traces sum",
			a:    `{"domain":"hiring","traces":40}`,
			b:    `{"domain":"hiring","traces":25}`,
			want: `{"domain":"hiring","traces":65}`,
		},
		{
			name: "null on one shard (ingest disabled) keeps the other",
			a:    `{"ingest":null,"traces":1}`,
			b:    `{"ingest":{"admittedEvents":7},"traces":2}`,
			want: `{"ingest":{"admittedEvents":7},"traces":3}`,
		},
		{
			name: "arrays concatenate",
			a:    `{"plans":[{"control":"c1"}]}`,
			b:    `{"plans":[{"control":"c2"}]}`,
			want: `{"plans":[{"control":"c1"},{"control":"c2"}]}`,
		},
		{
			name: "equal arrays keep one copy",
			a:    `{"plans":{"c1":["scan A","index B"]}}`,
			b:    `{"plans":{"c1":["scan A","index B"]}}`,
			want: `{"plans":{"c1":["scan A","index B"]}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeStats([]map[string]any{decode(t, tc.a), decode(t, tc.b)})
			want := decode(t, tc.want)
			if !reflect.DeepEqual(got, want) {
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(want)
				t.Errorf("merge mismatch:\n got %s\nwant %s", gj, wj)
			}
		})
	}
}

func TestMergeStatsDoesNotMutateInputs(t *testing.T) {
	a := decode(t, `{"store":{"Nodes":3},"plans":[{"control":"c1"}]}`)
	b := decode(t, `{"store":{"Nodes":4},"plans":[{"control":"c2"}]}`)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	_ = MergeStats([]map[string]any{a, b})
	if aj2, _ := json.Marshal(a); string(aj) != string(aj2) {
		t.Errorf("input a mutated: %s -> %s", aj, aj2)
	}
	if bj2, _ := json.Marshal(b); string(bj) != string(bj2) {
		t.Errorf("input b mutated: %s -> %s", bj, bj2)
	}
}

// TestMergeStatsAssociative: folding three shards must not depend on
// grouping — the router merges replies in arrival order.
func TestMergeStatsAssociative(t *testing.T) {
	docs := []map[string]any{
		decode(t, `{"traces":1,"seq":5,"ingest":{"draining":false}}`),
		decode(t, `{"traces":2,"seq":9,"ingest":{"draining":true}}`),
		decode(t, `{"traces":3,"seq":2,"ingest":{"draining":false}}`),
	}
	all := MergeStats(docs)
	pair := MergeStats([]map[string]any{MergeStats(docs[:2]), docs[2]})
	if !reflect.DeepEqual(all, pair) {
		t.Errorf("merge not associative: %v vs %v", all, pair)
	}
}

// TestMergeStatsOfRealShards merges the /stats documents of two real
// systems that did different amounts of work. Every ratio in the merged
// document stays a ratio (≤ 1), every high-water mark or configured
// size is the larger shard's, not the sum, and what every shard holds
// because deployments are broadcast (plans, domain, a shadow candidate)
// is stated once.
func TestMergeStatsOfRealShards(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	var docs []map[string]any
	for i, traces := range []int{6, 20} {
		sys, err := core.New(d, core.Config{Dir: t.TempDir(), Continuous: true})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(httpapi.NewServer(sys, false))
		t.Cleanup(func() {
			srv.Close()
			sys.Close()
		})
		cp := sys.Registry.List()[0]
		if _, err := sys.Registry.DeployShadow(cp.ID, cp.Text); err != nil {
			t.Fatal(err)
		}
		res := d.Simulate(workload.SimOptions{Seed: int64(7 + i), Traces: traces, ViolationRate: 0.3, Visibility: 1.0})
		if err := sys.Ingest(res.Events); err != nil {
			t.Fatal(err)
		}
		sys.Checker.WaitFor(sys.Store.Stats().Seq)
		if _, err := sys.CheckAll(); err != nil {
			t.Fatal(err)
		}
		code, body := rdoURL(t, srv.URL, http.MethodGet, "/stats")
		if code != http.StatusOK {
			t.Fatalf("shard %d /stats: %d %s", i, code, body)
		}
		docs = append(docs, decode(t, string(body)))
	}
	merged := MergeStats(docs)
	seen := map[string]bool{}
	var walk func(path string, m, a, b map[string]any)
	walk = func(path string, m, a, b map[string]any) {
		for k, v := range m {
			av, bv := a[k], b[k]
			switch mv := v.(type) {
			case map[string]any:
				am, _ := av.(map[string]any)
				bm, _ := bv.(map[string]any)
				walk(path+"."+k, mv, am, bm)
			case float64:
				x, okA := av.(float64)
				y, okB := bv.(float64)
				if !okA || !okB {
					continue
				}
				lk := strings.ToLower(k)
				switch {
				case strings.Contains(lk, "ratio") || lk == "utilization":
					seen[k] = true
					if mv > 1 {
						t.Errorf("%s.%s = %v merged from %v and %v: a ratio above 1", path, k, mv, x, y)
					}
				case strings.Contains(lk, "max") || lk == "indexes":
					seen[k] = true
					if mv != max(x, y) {
						t.Errorf("%s.%s = %v merged from %v and %v, want the larger", path, k, mv, x, y)
					}
				}
			}
		}
	}
	walk("stats", merged, docs[0], docs[1])
	for _, k := range []string{"Utilization", "FeedMaxDepth", "MaxCommitBatch", "Indexes", "maxFlush"} {
		if !seen[k] {
			t.Errorf("no shard reported %s", k)
		}
	}
	if plans, _ := docs[0]["plans"].(map[string]any); len(plans) == 0 {
		t.Fatalf("shard reported no plans: %v", docs[0]["plans"])
	}
	for _, k := range []string{"plans", "domain"} {
		if !reflect.DeepEqual(merged[k], docs[0][k]) {
			t.Errorf("merged %s = %v, want one shard's %v", k, merged[k], docs[0][k])
		}
	}
	if shadow, _ := merged["shadow"].(map[string]any); shadow["controls"] != 1.0 {
		t.Errorf("merged shadow = %v, want the one shadowed control every shard carries", merged["shadow"])
	}
}
