package cluster

import "reflect"

// Scatter-gather merge layer. The router fans /stats, /segments and
// cross-trace queries to every shard and folds the JSON replies into one
// document a single-node client can't tell apart from provd's own:
//
//   - numeric counters SUM (the default — admitted events, flushes,
//     cold hits, nodes, rows, traces ... are per-shard tallies)
//   - gauges and config high-water marks take MAX (queue depth, max
//     flush, seq, cache capacity ...), and min_seq-style floors take MIN
//   - booleans OR (draining, enabled)
//   - strings keep the first value seen; arrays equal on every shard
//     keep one copy (per-control plans: deployments are broadcast), others
//     concatenate; objects recurse
//   - latency summaries (the JSON shape of latency.Summary) merge with
//     count-summed, percentile-maxed semantics — an upper bound, since
//     percentiles are not mergeable from summaries alone.

// gaugeKeys are JSON keys whose values are levels or configuration, not
// per-shard tallies: summing them across shards would fabricate load.
// Both JSON-tagged (camelCase/snake_case) and untagged Go field names
// appear in /stats, so both spellings are listed.
var gaugeKeys = map[string]bool{
	"maxFlush":        true,
	"maxQueuedEvents": true,
	"queueDepth":      true,
	"maxBatch":        true,
	"shards":          true,
	"retryAfterMs":    true,
	"seq":             true,
	"LastSeq":         true,
	"Workers":         true,
	"Utilization":     true,
	"FeedMaxDepth":    true,
	"MaxCommitBatch":  true,
	"Indexes":         true,
	"cap_bytes":       true,
	"seal_seq":        true,
	"max_seq":         true,
	"bloom_fill":      true,
	"bloom_fpp":       true,
}

// minKeys take the minimum across shards (range floors).
var minKeys = map[string]bool{
	"min_seq": true,
}

// MergeStats folds per-shard decoded /stats documents into one. Inputs
// are not mutated.
func MergeStats(docs []map[string]any) map[string]any {
	out := map[string]any{}
	for _, d := range docs {
		mergeInto(out, d)
	}
	return out
}

func mergeInto(dst, src map[string]any) {
	for k, v := range src {
		cur, ok := dst[k]
		if !ok || cur == nil {
			dst[k] = cloneJSON(v)
			continue
		}
		if v == nil {
			continue
		}
		dst[k] = mergeValue(k, cur, v)
	}
}

// mergeValue folds src value b into accumulated value a (which mergeInto
// already owns — maps/slices under a are clones, safe to mutate).
func mergeValue(key string, a, b any) any {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return a
		}
		switch {
		case gaugeKeys[key]:
			if bv > av {
				return bv
			}
			return av
		case minKeys[key]:
			if bv < av {
				return bv
			}
			return av
		default:
			return av + bv
		}
	case bool:
		bv, _ := b.(bool)
		return av || bv
	case string:
		return av // first wins; differing strings mean heterogeneous shards
	case map[string]any:
		bm, ok := b.(map[string]any)
		if !ok {
			return a
		}
		if isSummary(av) && isSummary(bm) {
			return mergeSummary(av, bm)
		}
		mergeInto(av, bm)
		return av
	case []any:
		bl, ok := b.([]any)
		if !ok || reflect.DeepEqual(av, bl) {
			return a
		}
		out := av
		for _, e := range bl {
			out = append(out, cloneJSON(e))
		}
		return out
	}
	return a
}

// cloneJSON deep-copies a decoded-JSON value so merging never aliases a
// shard's reply.
func cloneJSON(v any) any {
	switch t := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(t))
		for k, e := range t {
			m[k] = cloneJSON(e)
		}
		return m
	case []any:
		l := make([]any, len(t))
		for i, e := range t {
			l[i] = cloneJSON(e)
		}
		return l
	default:
		return v
	}
}

// summaryKeys is the JSON shape of latency.Summary.
var summaryKeys = []string{"count", "p50us", "p99us", "p999us", "maxUs", "meanUs"}

func isSummary(m map[string]any) bool {
	if len(m) != len(summaryKeys) {
		return false
	}
	for _, k := range summaryKeys {
		if _, ok := m[k].(float64); !ok {
			return false
		}
	}
	return true
}

// mergeSummary folds two latency.Summary JSON objects: counts sum, the
// mean is count-weighted, and percentiles/max take the pairwise max — a
// sound upper bound on the true merged percentile.
func mergeSummary(a, b map[string]any) map[string]any {
	ca, cb := a["count"].(float64), b["count"].(float64)
	out := map[string]any{"count": ca + cb}
	for _, k := range []string{"p50us", "p99us", "p999us", "maxUs"} {
		va, vb := a[k].(float64), b[k].(float64)
		if vb > va {
			va = vb
		}
		out[k] = va
	}
	if ca+cb > 0 {
		out["meanUs"] = (a["meanUs"].(float64)*ca + b["meanUs"].(float64)*cb) / (ca + cb)
	} else {
		out["meanUs"] = float64(0)
	}
	return out
}
