package experiments

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/latency"
	"repro/internal/provbench"
	"repro/internal/store/slowfs"
)

// e16Device is the modeled durable device every shard's log runs on
// (via slowfs): 2ms per sync plus 512 KiB/s drain bandwidth — the
// profile of cheap network-attached block storage. CI hosts make real
// fsync nearly free, which would hide the per-node durability
// bottleneck that sharding actually multiplies; the device model
// restores it identically for every configuration.
var e16Device = slowfs.Device{Latency: 2 * time.Millisecond, BytesPerSec: 512 << 10}

// E16Cluster measures horizontal scale-out: the same open-loop provbench
// workload is driven against a consistent-hash router fronting 1, 2 and
// 4 in-process provd shards, each with its own durable store (Sync on,
// so every shard is a separate fsync lane). Two phases:
//
//   - overhead: a light load on one shard, reached directly vs through
//     the router, isolates the router's cost (the fan-out, composite-ack
//     and proxy machinery) from any queueing effect. provbench's HTTP
//     target asks to wait (Prefer: wait), so an admission is answered
//     once the batch is applied and "admit" is the answered latency.
//   - scale: a load chosen to saturate a single shard. Open loop means
//     the offered rate never back-pressures, so a saturated node sheds
//     and drains slowly; events/s (admitted events over elapsed time,
//     drain included) is the node's real apply throughput. Adding
//     shards multiplies admission queues and fsync lanes, so events/s
//     should grow with the shard count.
func E16Cluster(duration time.Duration, overheadRate, scaleRate float64, shardCounts []int) (*Table, error) {
	tbl := &Table{
		ID:    "E16",
		Title: "sharded cluster scale-out: throughput and router overhead",
		Paper: "section V scalability — partitioning the trace space across collection points",
		Columns: []string{
			"phase", "config", "offered/s", "admitted", "shed",
			"events/s", "admit p50/p99 us", "ack p99 us",
		},
	}
	type cell struct {
		rep *provbench.Report
	}
	addRow := func(phase, config string, rep *provbench.Report) {
		admit, ack := foldE16(rep)
		tbl.AddRow(phase, config,
			fmt.Sprintf("%.0f", rep.OfferedPerSec), rep.Admitted, rep.Shed,
			fmt.Sprintf("%.0f", rep.EventsPerSec),
			fmt.Sprintf("%d/%d", admit.P50US, admit.P99US),
			fmt.Sprintf("%d", ack.P99US))
	}

	// Phase 1: router overhead at a light, non-queueing load.
	var direct, routed cell
	for _, via := range []bool{false, true} {
		rep, err := e16Run(1, via, duration, overheadRate)
		if err != nil {
			return nil, fmt.Errorf("e16 overhead via=%t: %w", via, err)
		}
		config := "direct-1shard"
		if via {
			config, routed = "router-1shard", cell{rep}
		} else {
			direct = cell{rep}
		}
		addRow("overhead", config, rep)
	}

	// Phase 2: scale-out under a single-shard-saturating load.
	scale := map[int]cell{}
	for _, n := range shardCounts {
		rep, err := e16Run(n, true, duration, scaleRate)
		if err != nil {
			return nil, fmt.Errorf("e16 scale %d shards: %w", n, err)
		}
		scale[n] = cell{rep}
		addRow("scale", fmt.Sprintf("router-%dshard", n), rep)
	}

	dAdmit, _ := foldE16(direct.rep)
	rAdmit, _ := foldE16(routed.rep)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("router overhead p50 = %dus, p99 = %dus (router-1shard %d/%dus - direct-1shard %d/%dus); acceptance: p50 < 2000us",
			rAdmit.P50US-dAdmit.P50US, rAdmit.P99US-dAdmit.P99US,
			rAdmit.P50US, rAdmit.P99US, dAdmit.P50US, dAdmit.P99US),
		"admit is answered latency: an HTTP admission is answered once the batch is applied (Prefer: wait), so it includes the commit, and its p99 the device's fsync jitter",
	)
	if base, ok := scale[1]; ok {
		for _, n := range shardCounts {
			if n == 1 {
				continue
			}
			c, ok := scale[n]
			if !ok || base.rep.EventsPerSec <= 0 {
				continue
			}
			tbl.Notes = append(tbl.Notes, fmt.Sprintf(
				"%d shards: %.2fx the 1-shard events/s (%.0f vs %.0f)",
				n, c.rep.EventsPerSec/base.rep.EventsPerSec,
				c.rep.EventsPerSec, base.rep.EventsPerSec))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"events/s includes drain: a saturated shard keeps applying its backlog after the schedule ends, so the column is apply throughput, not offered rate",
		fmt.Sprintf("every shard commits through a modeled durable device (slowfs: %v latency + %d KiB/s drain); sharding multiplies commit lanes the way it would multiply real disks",
			e16Device.Latency, e16Device.BytesPerSec>>10),
	)
	return tbl, nil
}

// foldE16 pulls the single workload class's admit and ack summaries out
// of a report.
func foldE16(rep *provbench.Report) (admit, ack latency.Summary) {
	for _, c := range rep.Classes {
		return c.Admit, c.Ack
	}
	return
}

// e16Run drives one provbench run against n shards, optionally fronted
// by the router. viaRouter=false requires n==1 (the direct baseline).
func e16Run(n int, viaRouter bool, duration time.Duration, rate float64) (*provbench.Report, error) {
	if !viaRouter && n != 1 {
		return nil, fmt.Errorf("e16: direct baseline is single-shard only")
	}
	type node struct {
		sys *core.System
		srv *httptest.Server
	}
	nodes := make([]node, 0, n)
	shards := make([]cluster.Shard, 0, n)
	defer func() {
		for _, nd := range nodes {
			nd.srv.Close()
			nd.sys.Close()
		}
	}()
	dirs := make([]string, 0, n)
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "e16-*")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		d, err := provbench.DomainFor("hiring")
		if err != nil {
			return nil, err
		}
		sys, err := core.New(d, core.Config{
			// Sync on + the slowfs device: the commit fsync lane is the
			// per-node bottleneck this experiment shards. Continuous off:
			// on-commit correlation is pure CPU and E16 measures ingest,
			// not detection lag.
			Dir: dir, Sync: true,
			FS:               slowfs.New(nil, e16Device),
			IngestQueueDepth: 256,
		})
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(httpapi.NewServer(sys, false))
		nodes = append(nodes, node{sys, srv})
		shards = append(shards, cluster.Shard{
			Name: fmt.Sprintf("s%d", i+1), URL: srv.URL,
		})
	}

	base := nodes[0].srv.URL
	if viaRouter {
		rt, err := cluster.NewRouter(shards, 0)
		if err != nil {
			return nil, err
		}
		rsrv := httptest.NewServer(rt)
		defer rsrv.Close()
		base = rsrv.URL
	}

	spec := provbench.Spec{
		Name:     fmt.Sprintf("e16-%dx-%t-%.0f", n, viaRouter, rate),
		Seed:     16,
		Duration: provbench.Dur(duration),
		Classes: []provbench.ClientClass{
			{
				Name: "ingest", Domain: "hiring", Clients: 8,
				RatePerSec: rate, Skew: 1,
				Arrival:  provbench.ArrivalSpec{Process: "poisson"},
				BatchMin: 4, BatchMax: 8, ViolationRate: 0.2,
			},
		},
	}
	sched, err := provbench.Generate(spec)
	if err != nil {
		return nil, err
	}
	return provbench.Run(sched, &provbench.HTTPTarget{Base: base}, provbench.Options{
		AckPoll: time.Millisecond,
	})
}
