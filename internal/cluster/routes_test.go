package cluster

import (
	"testing"

	"repro/internal/httpapi"
)

// shardOnly lists the provd routes the router deliberately does not
// front, each with the reason.
var shardOnly = map[string]string{
	"/handoff/export":  "router-to-shard handoff protocol; clients never call it",
	"/handoff/import":  "router-to-shard handoff protocol; clients never call it",
	"/handoff/release": "router-to-shard handoff protocol; clients never call it",
	"/report":          "plain-text audit report; per-shard texts have no fold, so it is read from a shard directly",
}

// TestRouterCoversShardRoutes fails when someone adds a route to provd
// and forgets to decide what the router does with it.
func TestRouterCoversShardRoutes(t *testing.T) {
	fronted := map[string]bool{}
	for _, rte := range routes {
		fronted[rte.pattern] = true
	}
	served := map[string]bool{}
	for _, p := range httpapi.Patterns() {
		served[p] = true
		_, withheld := shardOnly[p]
		switch {
		case fronted[p] && withheld:
			t.Errorf("%s is both in the route table and in shardOnly", p)
		case !fronted[p] && !withheld:
			t.Errorf("provd serves %s but the router neither routes it nor lists it in shardOnly", p)
		}
	}
	for p := range shardOnly {
		if !served[p] {
			t.Errorf("shardOnly lists %s, which provd does not serve", p)
		}
	}
}
