// Command provd serves the business provenance system over HTTP: event
// ingestion (recorder clients post application events), internal control
// deployment in business vocabulary, compliance queries, dashboard KPIs,
// Table-1 row inspection and provenance graph navigation.
//
// Usage:
//
//	provd -domain hiring -addr :8341 [-dir /var/lib/provd] [-sync]
//	      [-continuous] [-materialize] [-workers N]
//	      [-ingest-shards N] [-ingest-queue N] [-ingest-batch N] [-sync-ingest]
//	      [-segment-cold N] [-segment-cache-mb N]
//	      [-compact-every D] [-window-tick D]
//
// Event ingestion is asynchronous by default: POST /events admits the
// batch into the bounded ingestion gateway and answers 202 with an ack
// token (or 429 + Retry-After under overload). -sync-ingest restores the
// old synchronous path. On SIGINT/SIGTERM the server stops accepting
// work, drains the admitted backlog, and exits cleanly.
//
// Endpoints:
//
//	POST   /events            admit a JSON array of application events (202
//	                          ack; ?sync=1 forces synchronous ingestion)
//	GET    /ingest/ack?token= poll an admitted batch's status
//	GET    /ingest/stats      ingestion gateway counters
//	GET    /controls          list deployed controls
//	POST   /controls          deploy {"id","name","text"[,"shadow":true]}
//	POST   /controls/X/promote   swap X's shadow candidate live
//	POST   /controls/X/rollback  discard X's shadow candidate
//	DELETE /controls?id=X     remove a control
//	GET    /tenants           list tenants with quotas and admission stats
//	POST   /tenants           create or retune {"id","name","weight","quota"}
//	GET    /compliance[?app=] check one trace or all traces
//	GET    /dashboard         per-control KPIs
//	GET    /violations?n=10   recent violation feed
//	GET    /graph?app=X       one trace's nodes and edges
//	GET    /rows?app=X        one trace's Table-1 rows
//	GET    /query?type=&field=&value=[&explain=1]  typed node query
//	GET    /segments          sealed cold-tier segments with zone maps
//	GET    /stats             store/pipeline statistics
//
// /graph and /compliance accept ?asof=N (a store sequence) for
// point-in-time audit reads against the tiered store's history.
//
// Every data endpoint accepts an X-Tenant header scoping the request to
// one tenant's namespace; without it the operator sees the global view.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8341", "listen address")
	domainName := flag.String("domain", "hiring", "process domain: hiring, procurement or claims")
	dir := flag.String("dir", "", "store directory (empty = in-memory)")
	continuous := flag.Bool("continuous", false, "check controls continuously on the change feed (ingest correlates in-commit either way)")
	materialize := flag.Bool("materialize", false, "materialize control points into the graph (Fig 2)")
	workers := flag.Int("workers", 0, "continuous-checking shard workers and CheckAll fan-out (0 = GOMAXPROCS)")
	sync := flag.Bool("sync", false, "fsync before acknowledging writes (group-committed; needs -dir)")
	ingestShards := flag.Int("ingest-shards", 0, "ingestion gateway admission queues, hashed by trace (0 = default)")
	ingestQueue := flag.Int("ingest-queue", 0, "events each admission queue holds before shedding load with 429 (0 = default)")
	ingestBatch := flag.Int("ingest-batch", 0, "events coalesced per store commit by the gateway (0 = default)")
	syncIngest := flag.Bool("sync-ingest", false, "disable the async ingestion gateway; POST /events ingests synchronously (operator escape hatch; ?sync=1 does it per request)")
	segmentCold := flag.Uint64("segment-cold", 4096, "commits a trace may sit untouched before compaction seals it into a cold segment (0 = never demote: every trace stays in memory, the all-resident policy; needs -dir)")
	segmentCacheMB := flag.Int("segment-cache-mb", 0, "sealed-segment block cache size in MiB (0 = default 32)")
	noSegmentGC := flag.Bool("no-segment-gc", false, "keep sealed segments whose traces were all promoted back or superseded; preserves full as-of history at the cost of disk")
	compactEvery := flag.Duration("compact-every", time.Minute, "compaction cadence: demotes cold traces and shrinks the log, skipping idle ticks (0 = never; needs -dir)")
	windowTick := flag.Duration("window-tick", time.Minute, "cadence for surfacing expired control windows without a triggering commit (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain admitted events on shutdown")
	flag.Parse()
	if *sync && *dir == "" {
		log.Fatal("provd: -sync requires -dir (an in-memory store has nothing to fsync)")
	}

	domain, err := buildDomain(*domainName)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(domain, core.Config{
		Dir: *dir, Continuous: *continuous, Materialize: *materialize,
		Workers: *workers, Sync: *sync,
		IngestShards:       *ingestShards,
		IngestQueueDepth:   *ingestQueue,
		IngestMaxBatch:     *ingestBatch,
		DisableAsyncIngest: *syncIngest,
		DisableSegmentGC:   *noSegmentGC,
		SegmentColdAfter:   *segmentCold,
		SegmentCacheMB:     *segmentCacheMB,
		CompactEvery:       *compactEvery,
		WindowTick:         *windowTick,
	})
	if err != nil {
		log.Fatal(err)
	}

	mode := "async ingest"
	if *syncIngest {
		mode = "sync ingest"
	}
	log.Printf("provd: domain %s, %d controls deployed, %s, listening on %s",
		domain.Name, len(domain.Controls), mode, *addr)
	srv := &http.Server{Addr: *addr, Handler: httpapi.NewServer(sys, *continuous)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		sys.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, let in-flight
	// requests finish, then drain the ingestion gateway so every admitted
	// event reaches the store before the process exits.
	log.Printf("provd: shutting down, draining ingest backlog (max %v)", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("provd: http shutdown: %v", err)
	}
	if sys.Gateway != nil {
		if err := sys.Gateway.Drain(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("provd: ingest drain: %v", err)
		}
	}
	if err := sys.Close(); err != nil {
		log.Printf("provd: close: %v", err)
	}
	log.Print("provd: bye")
}

func buildDomain(name string) (*workload.Domain, error) {
	switch name {
	case "hiring":
		return workload.Hiring()
	case "procurement":
		return workload.Procurement()
	case "claims":
		return workload.Claims()
	default:
		return nil, fmt.Errorf("unknown domain %q (want hiring, procurement or claims)", name)
	}
}
