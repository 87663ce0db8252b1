// Command provrouter fronts a sharded provd cluster: a stateless
// consistent-hash router that splits event batches by trace owner,
// proxies single-trace reads to the owning shard, and scatter-gathers
// cross-trace queries (/stats, /compliance, /segments, ...) with a merge
// layer. Shards are ordinary provd processes; the router holds no data.
//
// Usage:
//
//	provrouter -addr :8340 -shard s1=http://localhost:8341 \
//	           -shard s2=http://localhost:8342 [-vnodes 128]
//
// Topology changes at runtime:
//
//	POST /cluster/join  {"name":"s3","url":"http://localhost:8343"}
//	POST /cluster/leave {"name":"s1"}            graceful: handoff first
//	POST /cluster/leave {"name":"s1","force":true}  dead shard: drop range
//	GET  /cluster                                 topology and health
//
// Joining and leaving move only the traces whose ring arc changes owner
// (~K/N of K traces), shipped as sealed segments with a brief per-trace
// write shed during the tail copy — the rest of the cluster never stops.
//
// On SIGINT/SIGTERM the router stops accepting connections, lets the
// requests in flight finish, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/api"
	"repro/internal/cluster"
)

// shardFlags collects repeated -shard name=url flags.
type shardFlags []cluster.Shard

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sh := range *s {
		parts[i] = sh.Name + "=" + sh.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, cluster.Shard{Name: name, URL: url})
	return nil
}

func main() {
	addr := flag.String("addr", ":8340", "listen address")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default 128)")
	var shards shardFlags
	flag.Var(&shards, "shard", "shard as name=url (repeat per shard)")
	flag.Parse()
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "provrouter: at least one -shard name=url required")
		os.Exit(2)
	}
	rt, err := cluster.NewRouter(shards, *vnodes)
	if err != nil {
		log.Fatalf("provrouter: %v", err)
	}
	log.Printf("provrouter: %d shards, listening on %s", len(shards), *addr)
	srv := api.NewServer(*addr, rt)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatalf("provrouter: %v", err)
	case <-ctx.Done():
	}

	// Stop accepting connections and let in-flight requests finish; none
	// outlives api.WriteTimeout, so neither does the drain.
	log.Print("provrouter: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), api.WriteTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("provrouter: http shutdown: %v", err)
	}
	log.Print("provrouter: bye")
}
