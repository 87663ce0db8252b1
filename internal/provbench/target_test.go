package provbench

import (
	"testing"
	"time"

	"repro/internal/core"
)

func systemSpec(seed int64) Spec {
	return DefaultSpec("hiring", seed, 300*time.Millisecond, 200, 4,
		ArrivalSpec{Process: "poisson"})
}

// TestSystemTargetAsync drives a live core.System through its async
// ingestion gateway end to end: admission, ack polling, and detection
// lag sampled against the continuous checker.
func TestSystemTargetAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("live system run")
	}
	ctor, err := domainFor("hiring")
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctor()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{
		Dir: t.TempDir(), Continuous: true, IngestQueueDepth: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sched, err := Generate(systemSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sched, &SystemTarget{Sys: sys}, Options{
		AckPoll: time.Millisecond, DetectEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted == 0 {
		t.Fatal("no batches admitted")
	}
	if rep.Errors != 0 {
		t.Errorf("%d offer errors, last: %s", rep.Errors, rep.Classes[0].LastError)
	}
	if rep.Incomplete != 0 {
		t.Errorf("%d ops incomplete after drain", rep.Incomplete)
	}
	cr := rep.Classes[0]
	if cr.Ack.Count == 0 || cr.Ack.P99US < cr.Admit.P50US {
		t.Errorf("ack summary implausible: %+v vs admit %+v", cr.Ack, cr.Admit)
	}
	if cr.Detect.Count == 0 {
		t.Error("detection sampling produced no samples")
	}
	if rep.Gateway == nil {
		t.Fatal("async target reported no gateway stats")
	}
	if int(rep.Gateway.AdmittedBatches) != rep.Admitted {
		t.Errorf("gateway admitted %d batches, report says %d",
			rep.Gateway.AdmittedBatches, rep.Admitted)
	}
}
