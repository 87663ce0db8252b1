package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/api"
)

// Shard handoff, router side. A ring change (join or leave) moves the
// traces whose arc lands on a different shard — about K/N of K traces
// for an N-shard cluster, never a full reshuffle. The move is two-phase:
//
//  1. bulk: while writes keep flowing, each source shard exports its
//     moving traces as a sealed segment (/handoff/export) and the target
//     imports it (/handoff/import). The bulk copy does the heavy lifting
//     with zero write downtime.
//  2. cutover: the router sheds writes for the moving traces only
//     (503 + Retry-After — all other traces are untouched), waits for
//     ingests already past the shed check to finish forwarding, re-runs
//     the same export/import to pick up the tail (the export quiesces
//     the source's admission queue so every acked write is in the
//     segment; the import dedups the overlap by record ID), swaps the
//     ring, lifts the shed, and finally tells each source to release
//     (tombstone + scrub) what it shipped. The shed must outlive the
//     ring swap: a write admitted between tail and swap would route via
//     the old ring to the source and die under the release tombstone.
//
// Everything is idempotent: a crashed rebalance re-runs from the start
// and the imports skip what already landed. Until the ring swap commits,
// reads keep hitting the old owner, which still has everything.

// RebalanceResult summarizes one Join or Leave.
type RebalanceResult struct {
	// Shard is the joining or leaving shard.
	Shard string `json:"shard"`
	// Moved counts traces that changed owner.
	Moved int `json:"moved"`
	// BulkRows and TailRows count imported rows per phase; TailRows stay
	// near zero when the bulk phase did its job.
	BulkRows int `json:"bulkRows"`
	TailRows int `json:"tailRows"`
	// Sources maps each shard that shipped traces to how many it shipped.
	Sources map[string]int `json:"sources,omitempty"`
	// ReleaseErrors reports sources whose post-swap release failed; their
	// tombstones were not committed and the move should be re-released
	// (re-running the release is idempotent). The cluster still serves
	// correctly — reads go to the new owner.
	ReleaseErrors map[string]string `json:"releaseErrors,omitempty"`
}

// Join adds a shard to the ring, pulling its key range from the current
// owners with the two-phase handoff.
func (rt *Router) Join(ctx context.Context, sh Shard) (*RebalanceResult, error) {
	rt.handoffMu.Lock()
	defer rt.handoffMu.Unlock()
	if sh.Name == "" || sh.URL == "" {
		return nil, fmt.Errorf("cluster: join needs a name and a URL")
	}
	sh.URL = strings.TrimRight(sh.URL, "/")
	oldRing, urls := rt.topology()
	if _, exists := urls[sh.Name]; exists {
		return nil, fmt.Errorf("cluster: shard %q already in the ring", sh.Name)
	}
	newRing, err := oldRing.Add(sh.Name)
	if err != nil {
		return nil, err
	}
	// Plan: every trace a current shard holds whose new owner is the
	// joiner moves. Trace lists come from the shards, not the router —
	// the router is stateless.
	plan := map[string][]string{}
	res := &RebalanceResult{Shard: sh.Name, Sources: map[string]int{}}
	for _, src := range oldRing.Names() {
		apps, err := rt.shardTraces(ctx, urls[src])
		if err != nil {
			return nil, fmt.Errorf("cluster: join: traces from %s: %v", src, err)
		}
		for _, app := range apps {
			if newRing.OwnerName(app) == sh.Name {
				plan[src] = append(plan[src], app)
			}
		}
	}
	shed, err := rt.runHandoff(ctx, plan, func(string) string { return sh.URL }, urls, res)
	if err != nil {
		return nil, fmt.Errorf("cluster: join %s: %v", sh.Name, err)
	}
	if rt.testHookPreSwap != nil {
		rt.testHookPreSwap()
	}
	rt.mu.Lock()
	rt.ring = newRing
	nu := make(map[string]string, len(rt.urls)+1)
	for k, v := range rt.urls {
		nu[k] = v
	}
	nu[sh.Name] = sh.URL
	rt.urls = nu
	rt.mu.Unlock()
	// Only now, with the new ring visible, may writes to the moved traces
	// resume: they route to the joiner, not the about-to-release sources.
	rt.clearMoving(shed)
	rt.releaseAll(ctx, plan, urls, res)
	return res, nil
}

// Leave drains a shard gracefully: its traces scatter to their new
// owners under the shrunk ring, then it is removed. The shard must be
// reachable — removing a dead shard is ForceRemove.
func (rt *Router) Leave(ctx context.Context, name string) (*RebalanceResult, error) {
	rt.handoffMu.Lock()
	defer rt.handoffMu.Unlock()
	oldRing, urls := rt.topology()
	srcURL, ok := urls[name]
	if !ok {
		return nil, fmt.Errorf("cluster: shard %q not in the ring", name)
	}
	newRing, err := oldRing.Remove(name)
	if err != nil {
		return nil, err
	}
	apps, err := rt.shardTraces(ctx, srcURL)
	if err != nil {
		return nil, fmt.Errorf("cluster: leave: traces from %s: %v", name, err)
	}
	// Group the leaver's traces by their new owner; each group is one
	// export/import stream.
	byTarget := map[string][]string{}
	for _, app := range apps {
		byTarget[newRing.OwnerName(app)] = append(byTarget[newRing.OwnerName(app)], app)
	}
	res := &RebalanceResult{Shard: name, Sources: map[string]int{}}
	// runHandoff is keyed by source; here the single source fans to many
	// targets, so invert: one pseudo-plan per target with the same source.
	plan := map[string][]string{}
	targetURL := map[string]string{}
	for tgt, moved := range byTarget {
		key := name + "->" + tgt
		plan[key] = moved
		targetURL[key] = urls[tgt]
	}
	shed, err := rt.runHandoff(ctx, plan, func(k string) string { return targetURL[k] },
		map[string]string{}, res)
	if err != nil {
		return nil, fmt.Errorf("cluster: leave %s: %v", name, err)
	}
	if rt.testHookPreSwap != nil {
		rt.testHookPreSwap()
	}
	res.Sources = map[string]int{name: res.Moved}
	rt.mu.Lock()
	rt.ring = newRing
	nu := make(map[string]string, len(rt.urls))
	for k, v := range rt.urls {
		if k != name {
			nu[k] = v
		}
	}
	rt.urls = nu
	rt.mu.Unlock()
	rt.clearMoving(shed)
	if len(apps) > 0 {
		if err := rt.release(ctx, srcURL, apps); err != nil {
			res.ReleaseErrors = map[string]string{name: err.Error()}
		}
	}
	return res, nil
}

// ForceRemove drops an unreachable shard from the ring without handoff:
// its key range reassigns to the survivors, and its traces are gone
// until an operator re-imports its data directory. Use Leave when the
// shard is alive.
func (rt *Router) ForceRemove(name string) error {
	rt.handoffMu.Lock()
	defer rt.handoffMu.Unlock()
	oldRing, urls := rt.topology()
	if _, ok := urls[name]; !ok {
		return fmt.Errorf("cluster: shard %q not in the ring", name)
	}
	newRing, err := oldRing.Remove(name)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.ring = newRing
	nu := make(map[string]string, len(rt.urls))
	for k, v := range rt.urls {
		if k != name {
			nu[k] = v
		}
	}
	rt.urls = nu
	rt.mu.Unlock()
	return nil
}

// runHandoff executes both phases for a plan of source-keyed trace
// groups. targetOf maps a plan key to the import URL; srcURLs resolves a
// plan key to its export URL when the key is a plain shard name (Join);
// Leave pre-encodes "src->tgt" keys and passes its own URLs.
//
// On success the write shed for the moved traces is STILL UP: the caller
// must swap the ring first and then clearMoving the returned set, so no
// write admitted after the tail export can route via the old ring. On
// error the shed is lifted here — no swap or release will follow, the
// old owners keep serving, and the aborted move is re-runnable.
func (rt *Router) runHandoff(ctx context.Context, plan map[string][]string, targetOf func(string) string,
	srcURLs map[string]string, res *RebalanceResult) (shed []string, err error) {
	keys := make([]string, 0, len(plan))
	for k := range plan {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	exportURL := func(key string) string {
		if u, ok := srcURLs[key]; ok {
			return u
		}
		// Leave encodes "source->target"; the source URL was captured
		// before the ring shrank, so resolve it live.
		name := key
		if i := strings.Index(key, "->"); i >= 0 {
			name = key[:i]
		}
		_, urls := rt.topology()
		return urls[name]
	}
	var all []string
	for _, k := range keys {
		all = append(all, plan[k]...)
	}
	res.Moved = len(all)
	// Phase 1: bulk, writes still flowing.
	for _, k := range keys {
		rows, err := rt.exportImport(ctx, exportURL(k), targetOf(k), plan[k], false)
		if err != nil {
			return nil, fmt.Errorf("bulk %s: %v", k, err)
		}
		res.BulkRows += rows
		res.Sources[sourceName(k)] += len(plan[k])
	}
	if len(all) == 0 {
		return nil, nil
	}
	// Phase 2: shed writes for the moving traces only, wait out the
	// ingests that passed the shed check before it went up, then ship
	// the tail with the source's admission queue quiesced.
	rt.setMoving(all)
	rt.drainIngest()
	for _, k := range keys {
		rows, err := rt.exportImport(ctx, exportURL(k), targetOf(k), plan[k], true)
		if err != nil {
			rt.clearMoving(all)
			return nil, fmt.Errorf("tail %s: %v", k, err)
		}
		res.TailRows += rows
	}
	return all, nil
}

func sourceName(key string) string {
	if i := strings.Index(key, "->"); i >= 0 {
		return key[:i]
	}
	return key
}

// releaseAll tombstones the shipped traces on each source after the ring
// swap. Failures are recorded, not fatal: the new owner is serving, and
// re-running release is idempotent.
func (rt *Router) releaseAll(ctx context.Context, plan map[string][]string, urls map[string]string, res *RebalanceResult) {
	for src, apps := range plan {
		if len(apps) == 0 {
			continue
		}
		if err := rt.release(ctx, urls[sourceName(src)], apps); err != nil {
			if res.ReleaseErrors == nil {
				res.ReleaseErrors = map[string]string{}
			}
			res.ReleaseErrors[sourceName(src)] = err.Error()
		}
	}
}

// shardTraces asks one shard for the traces it holds (both tiers).
func (rt *Router) shardTraces(ctx context.Context, url string) ([]string, error) {
	status, body, err := rt.fetch(ctx, url, http.MethodGet, "/traces", nil, nil, api.MaxReplyBody)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, statusErr(status, body)
	}
	var apps []string
	if err := json.Unmarshal(body, &apps); err != nil {
		return nil, err
	}
	return apps, nil
}

// exportImport streams one export from src straight into dst's import
// endpoint and returns the number of rows dst inserted. The segment
// bytes never touch the router's disk. quiesce (tail phase) asks the
// source to flush its admission queue before exporting, so writes acked
// before the shed went up cannot slip past the tail and die under the
// release tombstone; a source that cannot quiesce in time fails the
// export and safely aborts the move.
func (rt *Router) exportImport(ctx context.Context, srcURL, dstURL string, apps []string, quiesce bool) (int, error) {
	if len(apps) == 0 {
		return 0, nil
	}
	body, err := json.Marshal(api.Apps{Apps: apps})
	if err != nil {
		return 0, err
	}
	uri := "/handoff/export"
	if quiesce {
		uri += "?quiesce=1"
	}
	exp, err := rt.call(ctx, srcURL, http.MethodPost, uri, api.JSONHeader(), bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("export: %v", err)
	}
	defer exp.Body.Close()
	if exp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(exp.Body, 4096)) // a short read still yields the status
		return 0, fmt.Errorf("export: %v", statusErr(exp.StatusCode, b))
	}
	status, ib, err := rt.fetch(ctx, dstURL, http.MethodPost, "/handoff/import",
		http.Header{"Content-Type": {"application/octet-stream"}}, exp.Body, api.MaxEventBody)
	if err != nil {
		return 0, fmt.Errorf("import: %v", err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("import: %v", statusErr(status, ib))
	}
	var out api.Imported
	if err := json.Unmarshal(ib, &out); err != nil {
		return 0, fmt.Errorf("import: bad reply: %v", err)
	}
	return out.Inserted, nil
}

// release tombstones handed-off traces on their old owner. It runs only
// after the ring swap committed, so a caller that hangs up no longer
// cancels it (api.Timeout still bounds the call): abandoning the release
// would strand the old copies.
func (rt *Router) release(ctx context.Context, srcURL string, apps []string) error {
	ctx = context.WithoutCancel(ctx)
	body, err := json.Marshal(api.Apps{Apps: apps})
	if err != nil {
		return err
	}
	status, reply, err := rt.fetch(ctx, srcURL, http.MethodPost, "/handoff/release", api.JSONHeader(), bytes.NewReader(body), api.MaxEventBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusErr(status, reply)
	}
	return nil
}

// Ring exposes the router's current ring (tests, /cluster).
func (rt *Router) RingSnapshot() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// SetAckCap overrides the composite-ack table bound (tests).
func (rt *Router) SetAckCap(n int) {
	rt.ackMu.Lock()
	defer rt.ackMu.Unlock()
	if n > 0 {
		rt.ackCap = n
	}
}
