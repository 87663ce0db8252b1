package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
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

// TestMergeStatsTable is the ISSUE scatter-gather merge table: counters
// sum, gauges max, bools OR, strings first, objects recurse, arrays
// concatenate, latency summaries merge count-summed/percentile-maxed.
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
			a:    `{"seq":120,"store":{"Seq":120}}`,
			b:    `{"seq":95,"store":{"Seq":95}}`,
			want: `{"seq":120,"store":{"Seq":120}}`,
		},
		{
			name: "min_seq floors, max_seq peaks",
			a:    `{"tiering":{"min_seq":10,"max_seq":50}}`,
			b:    `{"tiering":{"min_seq":4,"max_seq":90}}`,
			want: `{"tiering":{"min_seq":4,"max_seq":90}}`,
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
			name: "latency summary: count sums, percentiles max, mean weighted",
			a:    `{"admit":{"count":100,"p50us":10,"p99us":40,"p999us":60,"maxUs":80,"meanUs":12}}`,
			b:    `{"admit":{"count":300,"p50us":8,"p99us":50,"p999us":55,"maxUs":200,"meanUs":16}}`,
			want: `{"admit":{"count":400,"p50us":10,"p99us":50,"p999us":60,"maxUs":200,"meanUs":15}}`,
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
