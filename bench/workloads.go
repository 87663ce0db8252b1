package main

// workloads are the benchmark's four named workloads; later issues refer
// to them by these names. Each why is BENCHMARK.json's one line; README.md
// has the long form.
var workloads = []workloadDef{
	{
		name: "routed_steady",
		why:  "open loop at a fixed rate below the knee: HTTP client, cluster.Router, 2 durable continuous shards on the device model, reads mixed in; HTTP/JSON hop, fan-out, admission queue, group commit dominate",
		run:  runRoutedSteady,
	},
	{
		name: "check_heavy",
		why:  "closed loop, in-memory, no HTTP or gateway: ~200 open traces fed 1-2 events at a time under scan-heavy controls so most deltas are non-skippable; correlate, controls, rules and MVCC publish dominate",
		run:  runCheckHeavy,
	},
	{
		name: "cold_read",
		why:  "closed loop reads of a sealed image several times the block cache, reopened every round: segment decode, blooms, zone maps, block cache and log replay do all the work, the ingest path is idle",
		run:  runColdRead,
	},
	{
		name: "cold_mixed",
		why:  "closed loop on the same image, half cold reads, half gateway writes (promote-on-write and new traces) with compaction in the window: what a cold-read gain costs in promotion, demotion, heap and disk",
		run:  runColdMixed,
	},
}
