// Package provbench is the open-loop workload generator and load
// harness for the provenance platform. It models heterogeneous client
// populations — per-class SLOs, skewed per-client rates, bursty
// arrival processes — generates a fully deterministic request schedule
// from a seed, and drives a target (the in-process system, or a provd
// server over HTTP) WITHOUT closing the loop: requests fire on the
// schedule no matter how the target behaves, sheds are counted rather
// than retried, and queueing delay therefore shows up in the measured
// latencies instead of being hidden by client back-pressure the way
// closed-loop benchmarks hide it.
//
// Everything is seed-deterministic and paced by an injectable clock:
// the same spec and seed yield byte-identical schedules (and, under
// virtual time, byte-identical reports), and a schedule can be recorded
// to a file and replayed so a production-shaped run is reproducible.
package provbench

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/tenant"
)

// Dur is a time.Duration that marshals as a human-readable string
// ("750ms") in JSON specs and trace files.
type Dur time.Duration

func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Dur) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("provbench: bad duration %q: %v", s, err)
	}
	*d = Dur(v)
	return nil
}

// ClientClass is one homogeneous client population sharing an SLO
// class: its size, aggregate rate, rate skew across clients, arrival
// process, and the shape of the traffic each request carries.
type ClientClass struct {
	// Name is the SLO class label the report groups latencies by.
	Name string `json:"name"`
	// Domain selects the process domain whose scenario generator
	// produces the event stream: hiring, procurement or claims.
	Domain string `json:"domain"`
	// Clients is the population size.
	Clients int `json:"clients"`
	// RatePerSec is the class's aggregate offered rate in batches/sec,
	// spread over the clients according to Skew.
	RatePerSec float64 `json:"ratePerSec"`
	// Skew is the power-law exponent of the per-client rate spread:
	// client i carries weight (i+1)^-Skew. 0 spreads the rate evenly;
	// 1 is Zipf-like (a few hot clients carry most of the load).
	Skew float64 `json:"skew,omitempty"`
	// Arrival shapes each client's interarrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// BatchMin/BatchMax bound the events per request, drawn uniformly.
	// Zero values default to 16/64.
	BatchMin int `json:"batchMin,omitempty"`
	BatchMax int `json:"batchMax,omitempty"`
	// ViolationRate is passed to the domain simulator: the fraction of
	// generated traces seeded with a genuine control violation.
	ViolationRate float64 `json:"violationRate,omitempty"`
	// Tenant namespaces every generated trace ID under the named tenant
	// ("acme" turns trace T-1 into acme::T-1). Empty (or "default")
	// leaves IDs bare. Multi-tenant workloads give each class its own
	// tenant so per-tenant admission and fair-share checking are
	// measurable per class.
	Tenant string `json:"tenant,omitempty"`
}

// Spec is a complete workload description. It is pure data: Generate
// turns it into a schedule, and the schedule — not the spec — is what
// the runner executes, so a recorded schedule replays without the spec.
type Spec struct {
	// Name labels the workload in reports and idempotency keys.
	Name string `json:"name"`
	// Seed makes generation reproducible; same spec + seed = identical
	// schedule, byte for byte.
	Seed int64 `json:"seed"`
	// Duration is the open-loop schedule horizon.
	Duration Dur `json:"duration"`
	// Classes are the client populations offered concurrently.
	Classes []ClientClass `json:"classes"`
}

func (s *Spec) fill() {
	if s.Name == "" {
		s.Name = "provbench"
	}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Clients <= 0 {
			c.Clients = 1
		}
		if c.BatchMin <= 0 {
			c.BatchMin = 16
		}
		if c.BatchMax < c.BatchMin {
			c.BatchMax = c.BatchMin
			if c.BatchMax < 64 {
				c.BatchMax = 64
			}
		}
	}
}

// Validate checks the spec for generate-time errors.
func (s *Spec) Validate() error {
	if time.Duration(s.Duration) <= 0 {
		return fmt.Errorf("provbench: spec duration must be positive")
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("provbench: spec has no client classes")
	}
	seen := map[string]bool{}
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("provbench: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("provbench: duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
		if c.RatePerSec <= 0 {
			return fmt.Errorf("provbench: class %q rate must be positive", c.Name)
		}
		if c.Skew < 0 {
			return fmt.Errorf("provbench: class %q skew must be >= 0", c.Name)
		}
		if _, err := domainFor(c.Domain); err != nil {
			return err
		}
		if c.Tenant != "" && c.Tenant != tenant.DefaultID && !tenant.ValidID(c.Tenant) {
			return fmt.Errorf("provbench: class %q has invalid tenant %q", c.Name, c.Tenant)
		}
		if _, err := NewArrival(c.Arrival, time.Second); err != nil {
			return err
		}
	}
	return nil
}

// ParseSpec decodes a JSON spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("provbench: parse spec: %v", err)
	}
	s.fill()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// DefaultSpec is the single-class workload cmd/provbench builds from
// flags when no spec file is given: clients Poisson clients offering
// rate batches/sec of domain traffic under one "default" SLO class.
func DefaultSpec(domain string, seed int64, duration time.Duration, rate float64, clients int, arrival ArrivalSpec) Spec {
	s := Spec{
		Name:     "provbench-" + domain,
		Seed:     seed,
		Duration: Dur(duration),
		Classes: []ClientClass{{
			Name:          "default",
			Domain:        domain,
			Clients:       clients,
			RatePerSec:    rate,
			Skew:          1,
			Arrival:       arrival,
			ViolationRate: 0.2,
		}},
	}
	s.fill()
	return s
}
