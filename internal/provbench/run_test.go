package provbench

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// driveClock advances a FakeClock whenever the runner parks on it,
// always jumping exactly to the earliest pending deadline — virtual
// time with no wall-clock sleeps anywhere. It never advances past
// horizon (zero: no limit). Op goroutines run in real time, so a test
// whose ops all complete puts its drain timeout beyond the horizon: the
// drain wait then ends when the last op has run, not when the driver
// fires the timeout ahead of a goroutine the scheduler has not reached.
func driveClock(clk *FakeClock, horizon time.Time, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		now, next := clk.Now(), clk.NextDeadline()
		if next.After(now) && (horizon.IsZero() || !next.After(horizon)) {
			clk.Advance(next.Sub(now))
		} else {
			runtime.Gosched()
		}
	}
}

// pacingDuration is pacingSpec's schedule length; pacingEnd is the
// fake-clock instant it ends at for a run started at the epoch.
const pacingDuration = 5 * time.Second

var pacingEnd = time.Unix(0, 0).Add(pacingDuration)

func pacingSpec(process string, shape float64) Spec {
	s := Spec{
		Name:     "pacing",
		Seed:     5,
		Duration: Dur(pacingDuration),
		Classes: []ClientClass{{
			Name: "only", Domain: "hiring", Clients: 2,
			RatePerSec: 100,
			Arrival:    ArrivalSpec{Process: process, Shape: shape},
			BatchMin:   2, BatchMax: 4,
		}},
	}
	s.fill()
	return s
}

// TestPacingFakeClock drives each arrival process through the runner
// under a fake clock: every op must dispatch exactly at its scheduled
// offset (zero slip), and the schedule's interarrival statistics must
// match the process within tolerance.
func TestPacingFakeClock(t *testing.T) {
	cases := []struct {
		process    string
		shape      float64
		cvLo, cvHi float64
	}{
		{"uniform", 0, 0, 0.01},
		{"poisson", 0, 0.75, 1.25},
		{"gamma", 0.25, 1.5, 2.6},
		{"weibull", 0.5, 1.6, 2.9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.process, func(t *testing.T) {
			sched, err := Generate(pacingSpec(tc.process, tc.shape))
			if err != nil {
				t.Fatal(err)
			}
			// Schedule-level burstiness: per-client interarrival gaps.
			byClient := map[string][]time.Duration{}
			for _, op := range sched.Ops {
				byClient[op.Client] = append(byClient[op.Client], op.At)
			}
			for client, ats := range byClient {
				if len(ats) < 10 {
					continue
				}
				var sum, sumSq float64
				for i := 1; i < len(ats); i++ {
					g := float64(ats[i] - ats[i-1])
					sum += g
					sumSq += g * g
				}
				n := float64(len(ats) - 1)
				mean := sum / n
				variance := sumSq/n - mean*mean
				if variance < 0 {
					variance = 0
				}
				cv := 0.0
				if mean > 0 {
					cv = math.Sqrt(variance) / mean
				}
				if cv < tc.cvLo || cv > tc.cvHi {
					t.Errorf("client %s CV = %.2f, want in [%.2f, %.2f] (n=%d)",
						client, cv, tc.cvLo, tc.cvHi, len(ats))
				}
			}

			clk := NewFakeClock(time.Unix(0, 0))
			stop := make(chan struct{})
			go driveClock(clk, pacingEnd, stop)
			defer close(stop)
			target := &NullTarget{}
			rep, err := Run(sched, target, Options{Clock: clk, DrainTimeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			if rep.MaxScheduleSlipUS != 0 {
				t.Errorf("max schedule slip = %dus, want 0 under fake clock", rep.MaxScheduleSlipUS)
			}
			if rep.Offered != len(sched.Ops) || target.Offers() != len(sched.Ops) {
				t.Errorf("offered %d / target saw %d, want %d", rep.Offered, target.Offers(), len(sched.Ops))
			}
			if rep.Admitted != len(sched.Ops) || rep.Shed != 0 || rep.Errors != 0 {
				t.Errorf("admitted/shed/errors = %d/%d/%d, want %d/0/0",
					rep.Admitted, rep.Shed, rep.Errors, len(sched.Ops))
			}
		})
	}
}

// TestAckPollingVirtualClock pins the ack-poll pacing: a target that
// applies on the third poll yields an ack latency of exactly two poll
// intervals in virtual time, for every op. Inline + virtual clock
// serializes the run, so the quantiles are exact, not statistical.
func TestAckPollingVirtualClock(t *testing.T) {
	sched, err := Generate(pacingSpec("uniform", 0))
	if err != nil {
		t.Fatal(err)
	}
	clk := NewVirtualClock(time.Unix(0, 0))
	target := &NullTarget{PendingPolls: 3}
	rep, err := Run(sched, target, Options{Clock: clk, AckPoll: 2 * time.Millisecond, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Classes[0]
	if cr.Ack.Count != rep.Admitted || rep.Admitted == 0 {
		t.Fatalf("ack samples %d, admitted %d", cr.Ack.Count, rep.Admitted)
	}
	if cr.Ack.P50US != 4000 || cr.Ack.P999US != 4000 {
		t.Errorf("ack p50/p999 = %d/%dus, want exactly 4000us (2 polls x 2ms)", cr.Ack.P50US, cr.Ack.P999US)
	}
	if cr.Admit.P999US != 0 {
		t.Errorf("admit p999 = %dus, want 0 (instant offer)", cr.Admit.P999US)
	}
}

// TestOpenLoopOverloadKeepsSchedule is the open-loop invariant under
// total overload: a target that sheds every batch gets exactly one
// offer per scheduled op — no retries, no schedule slip — and the
// sheds are counted.
func TestOpenLoopOverloadKeepsSchedule(t *testing.T) {
	sched, err := Generate(pacingSpec("gamma", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	clk := NewFakeClock(time.Unix(0, 0))
	stop := make(chan struct{})
	go driveClock(clk, pacingEnd, stop)
	defer close(stop)
	target := &NullTarget{ShedAll: true}
	rep, err := Run(sched, target, Options{Clock: clk, DrainTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxScheduleSlipUS != 0 {
		t.Errorf("max schedule slip = %dus, want 0: sheds must not delay the schedule", rep.MaxScheduleSlipUS)
	}
	if target.Offers() != len(sched.Ops) {
		t.Errorf("target saw %d offers, want exactly %d (no retries)", target.Offers(), len(sched.Ops))
	}
	if rep.Shed != len(sched.Ops) || rep.Admitted != 0 {
		t.Errorf("shed/admitted = %d/%d, want %d/0", rep.Shed, rep.Admitted, len(sched.Ops))
	}
	if rep.EventsAdmitted != 0 {
		t.Errorf("events admitted = %d, want 0", rep.EventsAdmitted)
	}
}

// TestOpenLoopWedgedTargetKeepsSchedule wedges the target completely:
// offers park forever. The dispatcher must still fire every op on
// schedule, and the drain timeout must bound the run with every op
// reported incomplete.
func TestOpenLoopWedgedTargetKeepsSchedule(t *testing.T) {
	sched, err := Generate(pacingSpec("poisson", 0))
	if err != nil {
		t.Fatal(err)
	}
	clk := NewFakeClock(time.Unix(0, 0))
	stop := make(chan struct{})
	go driveClock(clk, time.Time{}, stop)
	defer close(stop)
	gate := make(chan struct{})
	target := &NullTarget{Gate: gate}
	rep, err := Run(sched, target, Options{Clock: clk, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	close(gate) // release the parked offer goroutines
	if rep.MaxScheduleSlipUS != 0 {
		t.Errorf("max schedule slip = %dus, want 0: a wedged target must not delay the schedule", rep.MaxScheduleSlipUS)
	}
	if rep.Offered != len(sched.Ops) {
		t.Errorf("offered = %d, want %d", rep.Offered, len(sched.Ops))
	}
	if rep.Incomplete != len(sched.Ops) {
		t.Errorf("incomplete = %d, want %d (every op parked past the drain timeout)", rep.Incomplete, len(sched.Ops))
	}
}

func TestRunRejectsEmptySchedule(t *testing.T) {
	if _, err := Run(&Schedule{}, &NullTarget{}, Options{}); err == nil {
		t.Error("empty schedule accepted")
	}
	sched, err := Generate(pacingSpec("uniform", 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sched, &NullTarget{}, Options{DetectEvery: 2}); err == nil {
		t.Error("detection sampling accepted on a target without a sampler")
	}
}
