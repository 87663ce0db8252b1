package ingest_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/ingest"
	"repro/internal/workload"
)

// TestGatewayRedeliveryAfterRestartAcksTrueErrors redelivers a keyed batch
// to a restarted durable system. The restarted gateway no longer knows
// the key, so the batch re-runs the sink: the ack reports the batch's
// true size and per-event errors, exactly as the first delivery did, and
// the deterministic record IDs leave the store unchanged.
func TestGatewayRedeliveryAfterRestartAcksTrueErrors(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := core.Config{Dir: dir, Sync: true}
	ts := time.Unix(100, 0).UTC()
	batch := []events.AppEvent{
		{Source: "lombardi", Type: "requisition.submitted", AppID: "T1", Timestamp: ts,
			Payload: map[string]string{"recordId": "N1", "req": "REQ-1"}},
		// Lacks the required "req" field: rejected.
		{Source: "lombardi", Type: "requisition.submitted", AppID: "T2", Timestamp: ts,
			Payload: map[string]string{"recordId": "N2"}},
	}
	deliver := func(sys *core.System) ingest.AckStatus {
		t.Helper()
		st, err := sys.Gateway.Offer("batch-1", batch)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sys.Gateway.WaitIdle(ctx); err != nil {
			t.Fatal(err)
		}
		ack, ok := sys.Gateway.Ack(st.Token)
		if !ok || ack.State != ingest.StateApplied {
			t.Fatalf("ack %s = %+v (found %v), want applied", st.Token, ack, ok)
		}
		return ack
	}

	sys, err := core.New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := deliver(sys)
	if first.Events != 2 || len(first.EventErrors) != 1 || first.EventErrors[0].Index != 1 {
		t.Fatalf("first ack = %+v, want 2 events with event 1 rejected", first)
	}
	rows := sys.Store.RowsForApp("T1")
	if len(rows) == 0 {
		t.Fatal("accepted event not recorded")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err = core.New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seq := sys.Store.Stats().Seq
	again := deliver(sys)
	if again.Events != first.Events || !reflect.DeepEqual(again.EventErrors, first.EventErrors) {
		t.Fatalf("redelivery ack after restart = %+v, want Events %d and EventErrors %+v",
			again, first.Events, first.EventErrors)
	}
	if got := sys.Store.Stats().Seq; got != seq {
		t.Fatalf("redelivery moved the store sequence %d -> %d", seq, got)
	}
	if got := sys.Store.RowsForApp("T1"); !reflect.DeepEqual(got, rows) {
		t.Fatalf("redelivery changed the trace's rows:\n got %+v\nwant %+v", got, rows)
	}
}
