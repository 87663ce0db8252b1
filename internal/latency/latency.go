// Package latency is the shared latency-digest used by every harness
// that reports percentile latencies: the E-series experiments, the
// bench/ workloads and the provbench open-loop load harness. Before it
// existed each site re-implemented the same sorted-index quantile
// computation; keeping one copy keeps every reported p99 comparable
// across harnesses.
//
// The digest is exact, not approximate: it retains every sample and
// sorts on demand. The harnesses that use it collect at most a few
// million samples per run, where an exact digest is both cheap and
// simpler to reason about than a sketch.
package latency

import (
	"sort"
	"time"
)

// Digest accumulates duration samples and answers quantile queries.
// The zero value is ready to use. Not safe for concurrent use; collect
// per-goroutine and Merge.
type Digest struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (d *Digest) Add(s time.Duration) {
	d.samples = append(d.samples, s)
	d.sorted = false
}

// AddAll records a batch of samples.
func (d *Digest) AddAll(s []time.Duration) {
	d.samples = append(d.samples, s...)
	d.sorted = false
}

// Merge folds another digest's samples into d.
func (d *Digest) Merge(o *Digest) {
	if o == nil {
		return
	}
	d.AddAll(o.samples)
}

// Count reports the number of recorded samples.
func (d *Digest) Count() int { return len(d.samples) }

func (d *Digest) sort() {
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using the sorted-index
// convention idx = floor((n-1)*q) — the same convention the repo's
// benchmarks have always reported, so numbers stay comparable across
// PRs. An empty digest returns 0; q is clamped to [0, 1].
func (d *Digest) Quantile(q float64) time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	d.sort()
	return d.samples[int(float64(len(d.samples)-1)*q)]
}

// P50 is the median.
func (d *Digest) P50() time.Duration { return d.Quantile(0.50) }

// P99 is the 99th percentile.
func (d *Digest) P99() time.Duration { return d.Quantile(0.99) }

// P999 is the 99.9th percentile.
func (d *Digest) P999() time.Duration { return d.Quantile(0.999) }

// Max returns the largest sample (0 when empty).
func (d *Digest) Max() time.Duration { return d.Quantile(1) }

// Mean returns the arithmetic mean (0 when empty).
func (d *Digest) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range d.samples {
		sum += s
	}
	return sum / time.Duration(len(d.samples))
}

// Summary is a serializable snapshot of the digest's headline
// quantiles, in microseconds for stable machine-readable output.
type Summary struct {
	Count  int   `json:"count"`
	P50US  int64 `json:"p50us"`
	P99US  int64 `json:"p99us"`
	P999US int64 `json:"p999us"`
	MaxUS  int64 `json:"maxUs"`
	MeanUS int64 `json:"meanUs"`
}

// Summary computes the snapshot.
func (d *Digest) Summary() Summary {
	return Summary{
		Count:  d.Count(),
		P50US:  d.P50().Microseconds(),
		P99US:  d.P99().Microseconds(),
		P999US: d.P999().Microseconds(),
		MaxUS:  d.Max().Microseconds(),
		MeanUS: d.Mean().Microseconds(),
	}
}
