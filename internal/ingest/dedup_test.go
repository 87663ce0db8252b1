package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/provenance"
	"repro/internal/store"
)

func propModel(t testing.TB) *provenance.Model {
	t.Helper()
	m := provenance.NewModel("prop")
	if err := m.AddType(&provenance.TypeDef{Name: "step", Class: provenance.ClassTask}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddField("step", &provenance.FieldDef{Name: "seq", Kind: provenance.KindString}); err != nil {
		t.Fatal(err)
	}
	return m
}

func propPipeline(t testing.TB) (*store.Store, *events.Pipeline) {
	t.Helper()
	st, err := store.Open(store.Options{Model: propModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// No IDKey: record IDs derive from (batch key, index) — the property
	// under test is that this makes redelivery invisible.
	p, err := events.NewPipeline(st, nil, &events.Mapping{
		Name: "step-recorder", EventType: "step",
		NodeType: "step", Class: provenance.ClassTask,
		Fields: []events.FieldMapping{{PayloadKey: "seq", Attr: "seq", Kind: provenance.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, p
}

func stepEvent(app, seq string) events.AppEvent {
	return events.AppEvent{Type: "step", AppID: app, Payload: map[string]string{"seq": seq}}
}

// TestDedupPropertyRetriesAndCrashes is the at-least-once property test:
// a client redelivers batches at random (spurious retries) while the
// gateway randomly crashes (kill: queued work and the dedup table lost)
// and restarts over the SAME store. Whatever the interleaving, at the
// end — after redelivering every batch the client never saw applied —
// the store holds each event exactly once: no loss, no duplication.
func TestDedupPropertyRetriesAndCrashes(t *testing.T) {
	const rounds = 6
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(round)))
			st, p := propPipeline(t)

			mk := func() *Gateway {
				g, err := New(Config{
					Shards: 2, QueueDepth: 128, MaxBatch: 8,
					DedupWindow: 16, // small: force some dedup past the table
				}, p.IngestKeyed)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := mk()

			const batches = 40
			applied := make([]bool, batches) // client saw a terminal ack
			batchOf := func(i int) []events.AppEvent {
				n := 1 + (i % 3)
				evs := make([]events.AppEvent, n)
				for j := range evs {
					evs[j] = stepEvent(fmt.Sprintf("T%d", i%5), fmt.Sprintf("%d-%d", i, j))
				}
				return evs
			}
			offer := func(i int) {
				stt, err := g.Offer(fmt.Sprintf("b%d", i), batchOf(i))
				var oe *OverloadError
				switch {
				case errors.As(err, &oe) || errors.Is(err, ErrDraining) || errors.Is(err, ErrClosed):
					return // client will retry later
				case err != nil:
					t.Fatalf("offer b%d: %v", i, err)
				}
				if stt.State == StateApplied {
					applied[i] = true
				}
			}

			for i := 0; i < batches; i++ {
				offer(i)
				// Spurious retry of a random earlier batch ~half the time.
				if rng.Intn(2) == 0 {
					offer(rng.Intn(i + 1))
				}
				// Occasionally the gateway crashes and restarts: queued
				// work vanishes, acks are lost, the dedup table starts
				// empty.
				if rng.Intn(10) == 0 {
					g.kill()
					g = mk()
				}
			}

			// Recovery: the client redelivers every batch it never saw
			// applied until each one is, restarting through crashes.
			for pass := 0; pass < 100; pass++ {
				done := true
				for i := 0; i < batches; i++ {
					if applied[i] {
						continue
					}
					done = false
					offer(i)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := g.WaitIdle(ctx)
				cancel()
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				// Re-check acks after the flush settles.
				for i := 0; i < batches; i++ {
					if !applied[i] {
						offer(i)
					}
				}
				if done {
					break
				}
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			for i, ok := range applied {
				if !ok {
					t.Fatalf("batch %d never applied", i)
				}
			}

			// Exactly once: every event present, under its deterministic
			// ID, and the store holds nothing else.
			want := 0
			for i := 0; i < batches; i++ {
				for j := range batchOf(i) {
					want++
					id := fmt.Sprintf("PE-b%d-%d", i, j)
					n := st.Node(id)
					if n == nil {
						t.Fatalf("event %s lost", id)
					}
					if got := n.Attr("seq").Str(); got != fmt.Sprintf("%d-%d", i, j) {
						t.Fatalf("event %s content = %q", id, got)
					}
				}
			}
			if got := st.Stats().Nodes; got != want {
				t.Fatalf("store holds %d nodes, want %d (duplicates)", got, want)
			}
			pst := p.Stats()
			if pst.Recorded != want {
				t.Fatalf("pipeline recorded %d, want %d", pst.Recorded, want)
			}
			if pst.Errors != 0 {
				t.Fatalf("pipeline errors = %d", pst.Errors)
			}
		})
	}
}
