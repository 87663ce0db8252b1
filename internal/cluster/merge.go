package cluster

import "reflect"

// Scatter-gather merge layer. The router fans /stats, /segments and
// cross-trace queries to every shard and folds the JSON replies into one
// document a single-node client can't tell apart from provd's own:
//
//   - numeric counters SUM (the default — admitted events, flushes,
//     cold hits, nodes, rows, traces ... are per-shard tallies)
//   - gauges, broadcast levels and config high-water marks take MAX
//     (queue depth, max flush, seq, shadowed controls, cache capacity ...)
//   - booleans OR (draining, enabled)
//   - strings keep the first value seen; arrays equal on every shard
//     keep one copy (per-control plans: deployments are broadcast), others
//     concatenate; objects recurse
//
// /segments documents are lists the router concatenates, never merges.

// gaugeKeys are JSON keys whose values are levels or configuration, not
// per-shard tallies: summing them across shards would fabricate load.
// Both JSON-tagged (camelCase/snake_case) and untagged Go field names
// appear in /stats, so both spellings are listed. "controls" is the
// shadow block's count of shadowed controls: deployments are broadcast,
// so every shard carries the same ones. "cap_bytes" is the block cache's
// capacity and "CapBytes" the result cache's budget for sealed traces'
// verdicts: each shard has its own, so the merge reports one shard's.
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
	"CapBytes":        true,
	"controls":        true,
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
		if gaugeKeys[key] {
			return max(av, bv)
		}
		return av + bv
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
