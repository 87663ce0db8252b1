package store_test

// Crash-recovery property harness. The store runs a fixed operation
// script — puts, updates, edges across three traces with compactions in
// the middle — on a fault-injection filesystem that "kills the machine"
// at the Nth mutating filesystem operation: the failing write persists
// only a prefix of its bytes and everything after it fails. For every
// possible N the harness then reopens the directory with the real
// filesystem and asserts the recovered store is prefix-consistent:
//
//   - its observable state equals the state after some prefix of the
//     script, at least as long as the acknowledged (committed) prefix —
//     Sync acknowledgements are durable, and at most the single
//     in-flight operation beyond them may survive;
//   - trace versions match what a serial replay of the recovered log
//     produces (the PR-1 cache invariant), exactly equaling the
//     operation count per trace when no compaction ran;
//   - the store stays writable and a second close/reopen cycle is a
//     fixed point.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

func crashModel(t testing.TB) *provenance.Model {
	t.Helper()
	m := provenance.NewModel("crash")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddRelation(&provenance.RelationDef{Name: "relatedTo"}))
	return m
}

func crashReq(id, app, reqID string) *provenance.Node {
	return &provenance.Node{
		ID: id, Class: provenance.ClassData, Type: "jobRequisition", AppID: app,
		Timestamp: time.Unix(2000, 0).UTC(),
		Attrs:     provenance.AttrsOf(map[string]provenance.Value{"reqID": provenance.String(reqID)}),
	}
}

// scriptOp is one step of the crash script. mutating steps count toward
// the committed prefix; Compact does not change observable state.
type scriptOp struct {
	mutating bool
	compact  bool
	do       func(s *store.Store) error
}

// batchOp is one multi-record request: nodes of one trace and an edge
// between the first two, committed together. Its records share one
// commit frame, so a crash keeps all of them or none — the harness's
// "some prefix of the script" allows nothing in between.
func batchOp(app string, ids ...string) scriptOp {
	return scriptOp{mutating: true, do: func(s *store.Store) error {
		var b store.Batch
		for _, id := range ids {
			b.Nodes = append(b.Nodes, crashReq(id, app, "REQ-"+id))
		}
		b.Edges = []*provenance.Edge{{ID: "e-" + ids[0], Type: "relatedTo", AppID: app, Source: ids[0], Target: ids[1]}}
		res := s.Commit(b)
		for _, err := range append(res.Nodes, res.Edges...) {
			if err != nil {
				return err
			}
		}
		return nil
	}}
}

// crashScript builds the deterministic workload: 3 traces, puts, updates,
// edges and one multi-record request, one compaction mid-script and one
// near the end (so crash points land before, inside and after both).
func crashScript() []scriptOp {
	var ops []scriptOp
	put := func(id, app, reqID string) {
		ops = append(ops, scriptOp{mutating: true, do: func(s *store.Store) error {
			return s.PutNode(crashReq(id, app, reqID))
		}})
	}
	update := func(id, app, reqID string) {
		ops = append(ops, scriptOp{mutating: true, do: func(s *store.Store) error {
			return s.UpdateNode(crashReq(id, app, reqID))
		}})
	}
	edge := func(id, app, src, dst string) {
		ops = append(ops, scriptOp{mutating: true, do: func(s *store.Store) error {
			return s.PutEdge(&provenance.Edge{ID: id, Type: "relatedTo", AppID: app, Source: src, Target: dst})
		}})
	}
	compact := func() {
		ops = append(ops, scriptOp{compact: true, do: func(s *store.Store) error { return s.Compact() }})
	}

	for i := 0; i < 6; i++ {
		app := fmt.Sprintf("A%d", i%3)
		put(fmt.Sprintf("n%d", i), app, fmt.Sprintf("REQ%d", i))
	}
	update("n0", "A0", "REQ0-v2")
	edge("e0", "A0", "n0", "n3")
	ops = append(ops, batchOp("A2", "b0", "b1", "b2"))
	compact()
	for i := 6; i < 10; i++ {
		app := fmt.Sprintf("A%d", i%3)
		put(fmt.Sprintf("n%d", i), app, fmt.Sprintf("REQ%d", i))
	}
	update("n1", "A1", "REQ1-v2")
	edge("e1", "A1", "n1", "n4")
	compact()
	put("n10", "A1", "REQ10")
	return ops
}

// exportString fingerprints a store's observable state.
func exportString(t testing.TB, s *store.Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.ExportRows(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// prefixModels computes, for every script prefix length k (counting only
// mutating ops), the expected export fingerprint and per-trace versions,
// using a purely in-memory store.
func prefixModels(t *testing.T, ops []scriptOp) (exports []string, versions []map[string]uint64) {
	t.Helper()
	mutating := make([]scriptOp, 0, len(ops))
	for _, op := range ops {
		if op.mutating {
			mutating = append(mutating, op)
		}
	}
	for k := 0; k <= len(mutating); k++ {
		s, err := store.Open(store.Options{Model: crashModel(t)})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range mutating[:k] {
			if err := op.do(s); err != nil {
				t.Fatal(err)
			}
		}
		exports = append(exports, exportString(t, s))
		vers := map[string]uint64{}
		for _, app := range []string{"A0", "A1", "A2"} {
			vers[app] = s.TraceVersion(app)
		}
		versions = append(versions, vers)
		s.Close()
	}
	return exports, versions
}

func TestCrashRecoveryHarness(t *testing.T) {
	ops := crashScript()
	firstCompact := len(ops)
	for i, op := range ops {
		if op.compact {
			firstCompact = i
			break
		}
	}
	exports, versions := prefixModels(t, ops)

	// Pass 0: count the workload's fault points on a fault-free run.
	probe := faultfs.New(nil)
	{
		dir := t.TempDir()
		s, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), Sync: true, FS: probe})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := op.do(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	points := probe.Ops()
	if points < 40 {
		t.Fatalf("suspiciously few fault points: %d", points)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}

	for point := 1; point <= points; point += stride {
		point := point
		t.Run(fmt.Sprintf("crash-at-%d", point), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(faultfs.CrashAt(point))
			committed := 0 // mutating ops acknowledged before the crash
			brokeAt := len(ops)
			s, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), Sync: true, FS: ffs})
			if err == nil {
				for i, op := range ops {
					if err := op.do(s); err != nil {
						brokeAt = i
						break
					}
					if op.mutating {
						committed++
					}
				}
				s.Close() // post-crash close errors are expected; ignore
			} else {
				brokeAt = 0
			}

			// The machine is dead; recover from the bytes on disk.
			s2, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), Sync: true})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer s2.Close()

			got := exportString(t, s2)
			matched := -1
			// Acknowledged commits are durable; at most the one operation
			// in flight when the crash hit may additionally survive.
			for k := committed; k <= committed+1 && k < len(exports); k++ {
				if got == exports[k] {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("recovered state matches no allowed prefix: committed=%d\ngot:\n%s", committed, got)
			}

			// Trace versions equal a serial replay of the recovered log. A
			// second open of the same directory is such a replay; the two
			// must agree exactly. Before any compaction ran, versions also
			// equal the per-trace operation count of the matched prefix.
			vers := map[string]uint64{}
			for _, app := range []string{"A0", "A1", "A2"} {
				vers[app] = s2.TraceVersion(app)
			}
			// Exact version accounting holds only while no compaction has
			// started: once one runs, a recovered log legitimately replays
			// fewer (collapsed) entries per trace.
			if brokeAt < firstCompact {
				for app, want := range versions[matched] {
					if vers[app] != want {
						t.Fatalf("trace %s version = %d, want %d (prefix %d)", app, vers[app], want, matched)
					}
				}
			}

			// The recovered store accepts writes and bumps versions by
			// exactly one.
			before := s2.TraceVersion("A0")
			if err := s2.PutNode(crashReq("fresh", "A0", "REQ-fresh")); err != nil {
				t.Fatalf("post-recovery write failed: %v", err)
			}
			if got := s2.TraceVersion("A0"); got != before+1 {
				t.Fatalf("version after post-recovery write = %d, want %d", got, before+1)
			}
			want2 := exportString(t, s2)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}

			// Close/reopen is a fixed point: same state, same versions.
			s3, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), Sync: true})
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			defer s3.Close()
			if got3 := exportString(t, s3); got3 != want2 {
				t.Fatalf("state diverged across close/reopen:\nfirst:\n%s\nsecond:\n%s", want2, got3)
			}
			vers["A0"]++ // the fresh write
			for app, want := range vers {
				if got := s3.TraceVersion(app); got != want {
					t.Fatalf("replayed version of %s = %d, want %d", app, got, want)
				}
			}
		})
	}
}

// TestCompactFaultInjection aborts compactions with one-shot I/O errors at
// every stage and asserts the abort contract: the error surfaces, no
// scratch file is left behind, appends keep working (on the side log), and
// a close/reopen cycle loses nothing.
func TestCompactFaultInjection(t *testing.T) {
	cases := []struct {
		name   string
		decide func(faultfs.Op) faultfs.Fault
	}{
		{"snapshot-write", func(op faultfs.Op) faultfs.Fault {
			if op.Kind == faultfs.OpWrite && strings.HasSuffix(op.Path, ".tmp") {
				return faultfs.Err
			}
			return faultfs.None
		}},
		{"snapshot-fsync", func(op faultfs.Op) faultfs.Fault {
			if op.Kind == faultfs.OpSync && strings.HasSuffix(op.Path, ".tmp") {
				return faultfs.Err
			}
			return faultfs.None
		}},
		{"rename", func(op faultfs.Op) faultfs.Fault {
			if op.Kind == faultfs.OpRename {
				return faultfs.Err
			}
			return faultfs.None
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(tc.decide)
			s, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := s.PutNode(crashReq(fmt.Sprintf("n%d", i), "A", fmt.Sprintf("R%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Compact(); err == nil {
				t.Fatal("Compact succeeded despite injected fault")
			}
			if d := s.Durability(); d.CompactionFailures != 1 || d.Compactions != 0 {
				t.Fatalf("durability counters = %+v", d)
			}
			// No scratch file may survive an abort.
			if names, err := (store.OSFS{}).ReadDir(dir); err == nil {
				for _, n := range names {
					if strings.HasSuffix(n, ".tmp") {
						t.Fatalf("leftover scratch file %s", n)
					}
				}
			}
			// Appends continue (on the side log) and survive reopening.
			if err := s.PutNode(crashReq("after", "A", "R-after")); err != nil {
				t.Fatalf("write after aborted compaction: %v", err)
			}
			want := exportString(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := store.Open(store.Options{Dir: dir, Model: crashModel(t)})
			if err != nil {
				t.Fatalf("reopen after aborted compaction: %v", err)
			}
			defer s2.Close()
			if got := exportString(t, s2); got != want {
				t.Fatalf("state diverged after aborted compaction:\nwant:\n%s\ngot:\n%s", want, got)
			}
			// A later, fault-free compaction folds everything back into
			// one main log.
			if err := s2.Compact(); err != nil {
				t.Fatalf("follow-up compaction: %v", err)
			}
			if got := exportString(t, s2); got != want {
				t.Fatal("follow-up compaction changed observable state")
			}
		})
	}
}

// TestCloseSyncPolicy pins the close contract: a store opened without
// Sync never fsyncs — not even on Close — while a synced store does, and
// an injected fsync failure during Close surfaces deterministically.
func TestCloseSyncPolicy(t *testing.T) {
	t.Run("nosync-never-fsyncs", func(t *testing.T) {
		ffs := faultfs.New(nil)
		s, err := store.Open(store.Options{Dir: t.TempDir(), Model: crashModel(t), FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.PutNode(crashReq(fmt.Sprintf("n%d", i), "A", "R")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := ffs.SyncCalls(); n != 0 {
			t.Fatalf("Sync:false store issued %d fsyncs", n)
		}
	})
	t.Run("close-fsync-error-surfaces", func(t *testing.T) {
		// Every put fsyncs once; the close fsync is the (k+1)-th.
		const k = 3
		ffs := faultfs.New(faultfs.ErrOn(faultfs.OpSync, k+1))
		s, err := store.Open(store.Options{Dir: t.TempDir(), Model: crashModel(t), Sync: true, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := s.PutNode(crashReq(fmt.Sprintf("n%d", i), "A", "R")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != faultfs.ErrInjected {
			t.Fatalf("Close = %v, want injected fsync error", err)
		}
	})
}

// TestCommitsStopAfterFailedFsync: a batch whose fsync fails has its frames
// in the file already, and the next batch's fsync would make them durable
// behind acknowledgements that never covered them. So a failed fsync stops
// the log: that batch and every later commit fail with its error, the log
// grows no further, and a reopened store holds every acknowledged write at
// the version the live store served and nothing committed after the
// failure. (Whether the failed batch's own frames survive is as open as
// after a crash mid-fsync.)
func TestCommitsStopAfterFailedFsync(t *testing.T) {
	const k = 3 // every put fsyncs once; the third fails
	dir := t.TempDir()
	s, err := store.Open(store.Options{Dir: dir, Model: crashModel(t), Sync: true, FS: faultfs.New(faultfs.ErrOn(faultfs.OpSync, k))})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < k; i++ {
		if err := s.PutNode(crashReq(fmt.Sprintf("n%d", i), "A", "R")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutNode(crashReq("failed", "B", "R")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("commit whose fsync fails = %v, want the injected error", err)
	}
	logSize := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "provenance.log"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	size := logSize()
	for _, app := range []string{"B", "A"} {
		if err := s.PutNode(crashReq("after-"+app, app, "R")); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("commit to %s after the failed fsync = %v, want the fsync's error", app, err)
		}
	}
	served := s.TraceVersion("A")
	s.Close() // reports the fsync's error too
	if got := logSize(); got != size {
		t.Fatalf("the log grew from %d to %d bytes after the failed fsync", size, got)
	}
	re, err := store.Open(store.Options{Dir: dir, Model: crashModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.TraceVersion("A"); got != served {
		t.Fatalf("trace A reopened at version %d, the live store served %d", got, served)
	}
	for _, id := range []string{"after-A", "after-B"} {
		if re.Node(id) != nil {
			t.Fatalf("%s, committed after the failed fsync, survived the reopen", id)
		}
	}
}
