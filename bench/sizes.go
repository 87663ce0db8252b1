package main

// Pinned workload sizes, per second of window. A run's operation counts
// are these times runCfg.seconds (BENCHMARK.json's run_seconds by
// default), so counts repeat from run to run and both sides of a later
// comparison do identical work. They were chosen on the seed commit at
// two cores so that each window takes about as long as it is sized for;
// the issue's 25-30 s targets are scaled by one common factor to fit the
// driver's total-time cap (results/sweep_11.txt records how the routed
// rate was found).
const (
	// routedRate is routed_steady's offered rate in batches per second,
	// about 40 % of the knee -sweep finds on the seed commit.
	routedRate = 20.0
	// routedReadEvery inserts one read after every this many writes.
	routedReadEvery = 2
	// routedAckPollMS is how often, in ms, a client polls a pending ack.
	routedAckPollMS = 2

	// heavyEventsPerSec sizes check_heavy's fixed event count, fed in
	// rounds of heavyEventsPerRound on fresh systems.
	heavyEventsPerSec   = 14000
	heavyEventsPerRound = 9000
	// heavyOpenTraces is how many traces are being fed at any time,
	// across the three domains.
	heavyOpenTraces = 201
	// heavyReadEvery makes every this-many-th write read back the
	// verdicts of the trace fed heavyReadLag batches earlier.
	heavyReadEvery = 8
	heavyReadLag   = 42

	// coldTraces is the image size of the cold workloads; coldHotShare of
	// them stay in the log, the rest are sealed. coldCacheMB caps the
	// segment block cache well below the sealed bytes.
	coldTraces   = 1500
	coldHotShare = 0.10
	coldCacheMB  = 1
	// coldRoundsPerSec sizes cold_read: each round reopens the image and
	// answers coldReadsPerRound reads, few enough that most verdict
	// reads are the first to touch their trace since the reopen.
	coldRoundsPerSec  = 6.5
	coldReadsPerRound = 1000

	// mixedOpsPerSec sizes cold_mixed's fixed operation count; every
	// mixedCompactEvery completed operations the store compacts, demoting
	// traces idle for mixedColdAfterPerOp commits per operation of that
	// interval — about half of the ≈ 11 commits an operation makes, so
	// every compaction finds the first half of its interval's traces
	// cold. That is deliberate: a compaction that demotes nothing can
	// deadlock the store (README.md, "Findings").
	mixedOpsPerSec      = 48
	mixedCompactEvery   = 120
	mixedColdAfterPerOp = 5
)

// scaled sizes a per-second constant for a window, never below min.
func scaled(perSec, seconds float64, min int) int {
	n := int(perSec*seconds + 0.5)
	if n < min {
		n = min
	}
	return n
}
