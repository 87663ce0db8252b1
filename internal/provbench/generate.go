package provbench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/events"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Op is one scheduled request: a client batch offered to the target at
// a fixed offset from the run start. The schedule is open-loop — At
// never depends on how the target handled earlier ops.
type Op struct {
	// At is the dispatch offset from the start of the run.
	At time.Duration
	// Client names the emitting simulated client ("interactive/3").
	Client string
	// Class is the client's SLO class (its ClientClass name).
	Class string
	// Tenant is the class's tenant namespace; empty for bare (default
	// tenant) traffic. The runner uses it to sample per-tenant detection
	// lag when the target supports it.
	Tenant string
	// Key is the batch's deterministic idempotency key.
	Key string
	// Events is the batch payload.
	Events []events.AppEvent
}

// Schedule is a fully materialized workload: every op, pre-generated
// and time-ordered. Materializing up front is what makes runs
// reproducible — generation cost is paid before the clock starts.
type Schedule struct {
	Spec Spec
	Ops  []Op
	// Events is the total event count across ops.
	Events int
}

// domainFor resolves a domain name to its constructor.
func domainFor(name string) (func() (*workload.Domain, error), error) {
	switch name {
	case "hiring":
		return workload.Hiring, nil
	case "procurement":
		return workload.Procurement, nil
	case "claims":
		return workload.Claims, nil
	default:
		return nil, fmt.Errorf("provbench: unknown domain %q (want hiring, procurement or claims)", name)
	}
}

// DomainFor builds the named process domain — the helper cmd/provbench
// uses to construct the in-process target's system from a spec's class
// domain.
func DomainFor(name string) (*workload.Domain, error) {
	build, err := domainFor(name)
	if err != nil {
		return nil, err
	}
	return build()
}

// Generate materializes the spec into a schedule. It is a pure
// function of the spec: the same spec (including seed) always yields
// an identical schedule; different seeds yield diverging ones.
func Generate(spec Spec) (*Schedule, error) {
	spec.fill()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	horizon := time.Duration(spec.Duration)
	sched := &Schedule{Spec: spec}
	for ci := range spec.Classes {
		class := &spec.Classes[ci]
		pool, err := classEventPool(spec, ci)
		if err != nil {
			return nil, err
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("provbench: class %q generated no events", class.Name)
		}
		cursor := 0
		weights := clientWeights(class.Clients, class.Skew)
		for i := 0; i < class.Clients; i++ {
			rate := class.RatePerSec * weights[i]
			mean := time.Duration(float64(time.Second) / rate)
			arr, err := NewArrival(class.Arrival, mean)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(spec.Seed ^ int64(hash64(fmt.Sprintf("%s/%s/%d", spec.Name, class.Name, i)))))
			client := fmt.Sprintf("%s/%d", class.Name, i)
			for t, opIdx := arr.Next(rng), 0; t <= horizon; t, opIdx = t+arr.Next(rng), opIdx+1 {
				size := class.BatchMin
				if class.BatchMax > class.BatchMin {
					size += rng.Intn(class.BatchMax - class.BatchMin + 1)
				}
				batch, next := takeEvents(pool, cursor, size)
				cursor = next
				batch = qualifyBatch(class.Tenant, batch)
				sched.Ops = append(sched.Ops, Op{
					At:     t,
					Client: client,
					Class:  class.Name,
					Tenant: class.Tenant,
					Key:    fmt.Sprintf("%s-%s-%d-%d", spec.Name, class.Name, i, opIdx),
					Events: batch,
				})
				sched.Events += len(batch)
			}
		}
	}
	// Time order with a deterministic tie-break so the schedule is a
	// pure function of the spec regardless of per-client generation
	// order above.
	sort.SliceStable(sched.Ops, func(i, j int) bool {
		if sched.Ops[i].At != sched.Ops[j].At {
			return sched.Ops[i].At < sched.Ops[j].At
		}
		return sched.Ops[i].Key < sched.Ops[j].Key
	})
	return sched, nil
}

// classEventPool simulates enough domain traffic to feed the class's
// expected op volume. The pool size estimate probes a small simulation
// first (events per trace vary by domain), then runs one final sizing —
// both steps depend only on the spec, so the pool is deterministic.
func classEventPool(spec Spec, ci int) ([]events.AppEvent, error) {
	class := &spec.Classes[ci]
	build, err := domainFor(class.Domain)
	if err != nil {
		return nil, err
	}
	d, err := build()
	if err != nil {
		return nil, err
	}
	seed := spec.Seed ^ int64(hash64("pool/"+class.Name))
	probe := d.Simulate(workload.SimOptions{Seed: seed, Traces: 16, ViolationRate: class.ViolationRate})
	perTrace := len(probe.Events) / 16
	if perTrace == 0 {
		perTrace = 1
	}
	avgBatch := float64(class.BatchMin+class.BatchMax) / 2
	need := int(class.RatePerSec*time.Duration(spec.Duration).Seconds()*avgBatch*1.25) + perTrace
	traces := need/perTrace + 1
	if traces < 16 {
		traces = 16
	}
	res := d.Simulate(workload.SimOptions{Seed: seed, Traces: traces, ViolationRate: class.ViolationRate})
	return res.Events, nil
}

// qualifyBatch rewrites a batch's trace IDs into a tenant's namespace.
// Batches are pool subslices shared across ops, so qualification copies
// rather than mutating in place. Bare (default-tenant) classes keep the
// zero-copy path.
func qualifyBatch(tenantID string, batch []events.AppEvent) []events.AppEvent {
	if tenantID == "" || tenantID == tenant.DefaultID {
		return batch
	}
	out := make([]events.AppEvent, len(batch))
	for i, ev := range batch {
		ev.AppID = tenant.Qualify(tenantID, ev.AppID)
		out[i] = ev
	}
	return out
}

// takeEvents slices n events from the pool starting at cursor, wrapping
// around when the pool is exhausted. Wrapped events repeat earlier
// traffic — the pipeline's deterministic record IDs absorb the
// duplicates, mirroring at-least-once capture.
func takeEvents(pool []events.AppEvent, cursor, n int) ([]events.AppEvent, int) {
	if n > len(pool) {
		n = len(pool)
	}
	if cursor+n <= len(pool) {
		return pool[cursor : cursor+n], cursor + n
	}
	batch := make([]events.AppEvent, 0, n)
	batch = append(batch, pool[cursor:]...)
	rest := n - len(batch)
	batch = append(batch, pool[:rest]...)
	return batch, rest
}

// clientWeights spreads a class's aggregate rate over its clients with
// a power-law skew: weight_i proportional to (i+1)^-skew, normalized to
// sum to 1. Skew 0 is uniform.
func clientWeights(clients int, skew float64) []float64 {
	w := make([]float64, clients)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), skew)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
