package events

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/correlate"
	"repro/internal/provenance"
	"repro/internal/store"
)

func testModel(t testing.TB) *provenance.Model {
	t.Helper()
	m := provenance.NewModel("test")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "reqID", Kind: provenance.KindString, Indexed: true}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "positionType", Kind: provenance.KindString}))
	must(m.AddField("jobRequisition", &provenance.FieldDef{Name: "headcount", Kind: provenance.KindInt}))
	must(m.AddType(&provenance.TypeDef{Name: "submission", Class: provenance.ClassTask}))
	must(m.AddField("submission", &provenance.FieldDef{Name: "actorEmail", Kind: provenance.KindString}))
	return m
}

func testStore(t testing.TB) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func reqMapping() *Mapping {
	return &Mapping{
		Name: "req-recorder", Source: "lombardi", EventType: "requisition.submitted",
		NodeType: "jobRequisition", Class: provenance.ClassData, IDKey: "recordId",
		Fields: []FieldMapping{
			{PayloadKey: "req", Attr: "reqID", Kind: provenance.KindString, Required: true},
			{PayloadKey: "ptype", Attr: "positionType", Kind: provenance.KindString},
			{PayloadKey: "count", Attr: "headcount", Kind: provenance.KindInt},
		},
	}
}

func taskMapping() *Mapping {
	return &Mapping{
		Name: "task-recorder", EventType: "task.submit",
		NodeType: "submission", Class: provenance.ClassTask,
		Fields: []FieldMapping{
			{PayloadKey: "email", Attr: "actorEmail", Kind: provenance.KindString},
		},
	}
}

func reqEvent() AppEvent {
	return AppEvent{
		Source: "lombardi", Type: "requisition.submitted", AppID: "App01",
		Timestamp: time.Unix(5000, 0).UTC(),
		Payload: map[string]string{
			"recordId": "PE3",
			"req":      "REQ001",
			"ptype":    "new",
			"count":    "2",
			"ssn":      "123-45-6789", // unmapped: must never be captured
		},
	}
}

func TestPipelineRecordsMappedEvent(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping(), taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(reqEvent()); err != nil {
		t.Fatal(err)
	}
	n := st.Node("PE3")
	if n == nil {
		t.Fatal("node not recorded")
	}
	if n.Type != "jobRequisition" || n.AppID != "App01" {
		t.Fatalf("node = %v", n)
	}
	if n.Attr("reqID").Str() != "REQ001" || n.Attr("headcount").IntVal() != 2 {
		t.Fatalf("attrs = %v", n.Attrs)
	}
	if !n.Timestamp.Equal(time.Unix(5000, 0).UTC()) {
		t.Errorf("timestamp = %v", n.Timestamp)
	}
	stats := p.Stats()
	if stats.Ingested != 1 || stats.Recorded != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPipelineRedactsUnmappedPayload(t *testing.T) {
	// "To avoid redundancy and possible exposure of sensitive data,
	// recorder clients do not copy all application data."
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(reqEvent()); err != nil {
		t.Fatal(err)
	}
	n := st.Node("PE3")
	for _, attr := range n.Attrs {
		if attr.Name == "ssn" {
			t.Fatal("sensitive unmapped payload captured")
		}
	}
	row, ok := st.Row("PE3")
	if !ok {
		t.Fatal("row missing")
	}
	if strings.Contains(row.XML, "123-45-6789") {
		t.Fatal("sensitive data reached the stored XML")
	}
}

func TestPipelineUnmatchedAndNoTrace(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(AppEvent{Source: "mail", Type: "mail.sent", AppID: "App01"}); err != nil {
		t.Fatal(err)
	}
	ev := reqEvent()
	ev.AppID = ""
	if err := p.Ingest(ev); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats.Unmatched != 1 || stats.NoTrace != 1 || stats.Recorded != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if st.Stats().Nodes != 0 {
		t.Fatal("dropped events reached the store")
	}
}

func TestPipelineMissingFields(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	// Optional field missing: recorded without it.
	ev := reqEvent()
	delete(ev.Payload, "ptype")
	if err := p.Ingest(ev); err != nil {
		t.Fatal(err)
	}
	if n := st.Node("PE3"); !n.Attr("positionType").IsZero() {
		t.Fatal("missing optional field materialized")
	}
	// Required field missing: error, counted.
	ev2 := reqEvent()
	ev2.Payload["recordId"] = "PE4"
	delete(ev2.Payload, "req")
	if err := p.Ingest(ev2); err == nil {
		t.Fatal("missing required field accepted")
	}
	if p.Stats().Errors != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestPipelineBadFieldValue(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	ev := reqEvent()
	ev.Payload["count"] = "two"
	if err := p.Ingest(ev); err == nil {
		t.Fatal("unparseable int accepted")
	}
}

func TestPipelineSequentialIDs(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev := AppEvent{Source: "x", Type: "task.submit", AppID: "App01",
			Payload: map[string]string{"email": "jdoe@acme.com"}}
		if err := p.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"PE1", "PE2", "PE3"} {
		if st.Node(id) == nil {
			t.Fatalf("expected generated ID %s", id)
		}
	}
}

func TestPipelineDuplicateIDRejected(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(reqEvent()); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(reqEvent()); err == nil {
		t.Fatal("duplicate record ID accepted")
	}
	if p.Stats().Errors != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestNewPipelineValidatesMappings(t *testing.T) {
	st := testStore(t)
	cases := []*Mapping{
		{Name: "", EventType: "x", NodeType: "jobRequisition", Class: provenance.ClassData},
		{Name: "m", EventType: "", NodeType: "jobRequisition", Class: provenance.ClassData},
		{Name: "m", EventType: "x", NodeType: "ghost", Class: provenance.ClassData},
		{Name: "m", EventType: "x", NodeType: "jobRequisition", Class: provenance.ClassTask},
		{Name: "m", EventType: "x", NodeType: "jobRequisition", Class: provenance.ClassData,
			Fields: []FieldMapping{{PayloadKey: "a", Attr: "ghost", Kind: provenance.KindString}}},
		{Name: "m", EventType: "x", NodeType: "jobRequisition", Class: provenance.ClassData,
			Fields: []FieldMapping{{PayloadKey: "a", Attr: "reqID", Kind: provenance.KindInt}}},
	}
	for i, m := range cases {
		if _, err := NewPipeline(st, nil, m); err == nil {
			t.Errorf("case %d: invalid mapping accepted", i)
		}
	}
	// Overlapping (source, type) pairs are ambiguous.
	if _, err := NewPipeline(st, nil, reqMapping(), reqMapping()); err == nil {
		t.Error("duplicate mapping key accepted")
	}
	if _, err := NewPipeline(nil, nil, reqMapping()); err == nil {
		t.Error("nil store accepted")
	}
}

func TestIngestAllContinuesPastErrors(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	bad := reqEvent()
	bad.Payload["count"] = "NaN-ish"
	good := reqEvent()
	good.Payload["recordId"] = "PE9"
	if err := p.IngestAll([]AppEvent{bad, good}); err == nil {
		t.Fatal("first error not reported")
	}
	if st.Node("PE9") == nil {
		t.Fatal("batch stopped at first error")
	}
}

func TestIngestAllBatchErrorDetails(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	badCount := reqEvent()
	badCount.Payload["count"] = "NaN-ish"
	noReq := reqEvent()
	noReq.Payload["recordId"] = "PE10"
	delete(noReq.Payload, "req")
	good := reqEvent()
	good.Payload["recordId"] = "PE11"

	err = p.IngestAll([]AppEvent{badCount, good, noReq})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("IngestAll error is %T, want *BatchError", err)
	}
	if be.Total != 3 || len(be.Failed) != 2 {
		t.Fatalf("BatchError = %d failed of %d, want 2 of 3", len(be.Failed), be.Total)
	}
	if be.Failed[0].Index != 0 || be.Failed[1].Index != 2 {
		t.Fatalf("failed indices = %d, %d; want 0, 2", be.Failed[0].Index, be.Failed[1].Index)
	}
	if !strings.Contains(be.Failed[1].Err.Error(), "req") {
		t.Fatalf("index-2 error does not name the missing field: %v", be.Failed[1].Err)
	}
	if !strings.Contains(be.Error(), "2 of 3") {
		t.Fatalf("summary message = %q", be.Error())
	}
	if be.Unwrap() != be.Failed[0].Err {
		t.Fatal("Unwrap does not expose the first per-event error")
	}
	if st.Node("PE11") == nil {
		t.Fatal("good event between failures was not recorded")
	}
	// A clean batch reports no error at all — not a typed nil.
	clean := reqEvent()
	clean.Payload["recordId"] = "PE12"
	if err := p.IngestAll([]AppEvent{clean}); err != nil {
		t.Fatalf("clean batch: %v", err)
	}
}

func TestRecorders(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping(), taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	got := p.Recorders()
	if len(got) != 2 || got[0] != "req-recorder" || got[1] != "task-recorder" {
		t.Fatalf("Recorders = %v", got)
	}
}

func BenchmarkPipelineIngest(b *testing.B) {
	st, err := store.Open(store.Options{Model: testModel(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m := reqMapping()
	m.IDKey = "" // generated IDs so every event is unique
	p, err := NewPipeline(st, nil, m)
	if err != nil {
		b.Fatal(err)
	}
	ev := reqEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Ingest(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// kevs builds a keyed run from one batch key.
func kevs(key string, evs ...AppEvent) []KeyedEvent {
	out := make([]KeyedEvent, len(evs))
	for i, ev := range evs {
		out[i] = KeyedEvent{Event: ev, Key: key, Index: i}
	}
	return out
}

func taskEvent(app, email string) AppEvent {
	return AppEvent{Source: "x", Type: "task.submit", AppID: app,
		Timestamp: time.Unix(7000, 0).UTC(),
		Payload:   map[string]string{"email": email}}
}

// TestIngestKeyedDeterministicIDs: events without a mapping ID key get IDs
// derived from (batch key, index), and redelivering the same batch is
// absorbed idempotently — no new records, no error, Duplicates counted.
func TestIngestKeyedDeterministicIDs(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping(), taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	batch := kevs("b1", taskEvent("App01", "a@acme.com"), taskEvent("App01", "b@acme.com"), reqEvent())
	if err := p.IngestKeyed(batch); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"PE-b1-0", "PE-b1-1", "PE3"} {
		if st.Node(id) == nil {
			t.Fatalf("missing record %s", id)
		}
	}
	nodesBefore := st.Stats().Nodes
	// Redelivery: the whole batch again, byte-identical.
	if err := p.IngestKeyed(batch); err != nil {
		t.Fatalf("redelivery rejected: %v", err)
	}
	if got := st.Stats().Nodes; got != nodesBefore {
		t.Fatalf("redelivery grew the store: %d -> %d nodes", nodesBefore, got)
	}
	s := p.Stats()
	if s.Duplicates != 3 {
		t.Fatalf("Duplicates = %d, want 3", s.Duplicates)
	}
	if s.Recorded != 3 {
		t.Fatalf("Recorded = %d, want 3", s.Recorded)
	}
	if rs := s.PerRecorder["task-recorder"]; rs.Recorded != 2 || rs.Duplicates != 2 {
		t.Fatalf("task-recorder stats = %+v", rs)
	}
}

// TestIngestKeyedIDCollision: a duplicate ID carrying DIFFERENT content is
// an error, not a benign redelivery.
func TestIngestKeyedIDCollision(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IngestKeyed(kevs("b1", reqEvent())); err != nil {
		t.Fatal(err)
	}
	changed := reqEvent()
	changed.Payload["ptype"] = "replacement"
	err = p.IngestKeyed(kevs("b2", changed))
	var be *BatchError
	if !errors.As(err, &be) || be.Failed[0].Index != 0 {
		t.Fatalf("collision not reported: %v", err)
	}
	if p.Stats().Duplicates != 0 {
		t.Fatalf("collision miscounted as duplicate: %+v", p.Stats())
	}
}

// TestIngestKeyedPerRecorderStats: transform errors, no-trace drops and
// unmatched events land in the right counters, with per-recorder
// attribution for everything a recorder claimed.
func TestIngestKeyedPerRecorderStats(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping(), taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	missing := reqEvent()
	delete(missing.Payload, "req") // required field
	missing.Payload["recordId"] = "PE9"
	noTrace := taskEvent("", "x@acme.com")
	stranger := AppEvent{Source: "y", Type: "unknown.kind", AppID: "App01"}
	err = p.IngestKeyed(kevs("b1", missing, noTrace, stranger, taskEvent("App01", "ok@acme.com")))
	var be *BatchError
	if !errors.As(err, &be) || len(be.Failed) != 1 || be.Failed[0].Index != 0 {
		t.Fatalf("want one failure at index 0, got %v", err)
	}
	s := p.Stats()
	if s.Ingested != 4 || s.Recorded != 1 || s.Unmatched != 1 || s.NoTrace != 1 || s.Errors != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if rs := s.PerRecorder["req-recorder"]; rs.TransformErrors != 1 {
		t.Fatalf("req-recorder stats = %+v", rs)
	}
	if rs := s.PerRecorder["task-recorder"]; rs.NoTrace != 1 || rs.Recorded != 1 {
		t.Fatalf("task-recorder stats = %+v", rs)
	}
}

// TestIngestPerRecorderStatsSinglePath: the one-event path attributes
// errors and drops the same way the keyed path does.
func TestIngestPerRecorderStatsSinglePath(t *testing.T) {
	st := testStore(t)
	p, err := NewPipeline(st, nil, reqMapping())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(reqEvent()); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(reqEvent()); err == nil { // duplicate ID: store error
		t.Fatal("duplicate accepted on single path")
	}
	bad := reqEvent()
	bad.Payload["recordId"] = "PE8"
	bad.Payload["count"] = "not-a-number"
	if err := p.Ingest(bad); err == nil {
		t.Fatal("unparsable field accepted")
	}
	rs := p.Stats().PerRecorder["req-recorder"]
	if rs.Recorded != 1 || rs.StoreErrors != 1 || rs.TransformErrors != 1 {
		t.Fatalf("req-recorder stats = %+v", rs)
	}
}

// TestIngestCommitsDerivedRecords: a pipeline with a correlator commits the
// edges a batch causes in the batch's own commit; an edge the store rejects
// fails alone, is counted by the correlator and comes back in the error
// beside the recorded nodes.
func TestIngestCommitsDerivedRecords(t *testing.T) {
	m := testModel(t)
	if err := m.AddRelation(&provenance.RelationDef{Name: "submits", SourceType: "submission", TargetType: "jobRequisition"}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	link := func(name, typ string) correlate.Rule {
		return &correlate.Func{RuleName: name, Fn: func(g *provenance.Graph, app string) []*provenance.Edge {
			var out []*provenance.Edge
			for _, task := range g.NodesByType(app, "submission") {
				for _, req := range g.NodesByType(app, "jobRequisition") {
					out = append(out, &provenance.Edge{Type: typ, Source: task.ID, Target: req.ID})
				}
			}
			return out
		}}
	}
	corr, err := correlate.NewEngine(st, link("good", "submits"), link("bad", "undeclared"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(st, corr, reqMapping(), taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	seq := st.Stats().Seq
	err = p.IngestAll([]AppEvent{reqEvent(), taskEvent("App01", "a@acme.com")})
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("rejected derived edge not returned: %v", err)
	}
	var be *BatchError
	if errors.As(err, &be) {
		t.Fatalf("derived-record failure blamed on an event: %v", err)
	}
	if s := p.Stats(); s.Recorded != 2 || s.Errors != 0 {
		t.Fatalf("pipeline stats = %+v", s)
	}
	if cs := corr.Stats(); cs.EdgesDerived != 1 || cs.Errors != 1 || cs.TracesProcessed != 1 {
		t.Fatalf("correlator stats = %+v", cs)
	}
	if got := st.Stats().Seq - seq; got != 3 {
		t.Fatalf("batch committed %d records, want 2 nodes + 1 edge", got)
	}
}

// TestReserveAppliesInTicketOrder: runs on one trace apply in the order
// they were reserved, not in the order their applies start. C's apply
// starts first and must wait for B, reserved before it, so B's derive
// sees only B and C's sees both. A lock that lets whichever caller comes
// first go (a busy set woken by Broadcast) commits C first.
func TestReserveAppliesInTicketOrder(t *testing.T) {
	st := testStore(t)
	var mu sync.Mutex
	var saw [][]string // per derive, in derive order: the trace's submissions
	corr, err := correlate.NewEngine(st, &correlate.Func{RuleName: "order",
		Fn: func(g *provenance.Graph, app string) []*provenance.Edge {
			var ids []string
			for _, n := range g.NodesByType(app, "submission") {
				ids = append(ids, n.ID)
			}
			sort.Strings(ids)
			mu.Lock()
			saw = append(saw, ids)
			mu.Unlock()
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(st, corr, taskMapping())
	if err != nil {
		t.Fatal(err)
	}
	applyB := p.Reserve(kevs("B", taskEvent("App01", "b@acme.com")))
	applyC := p.Reserve(kevs("C", taskEvent("App01", "c@acme.com")))
	doneC := make(chan error, 1)
	go func() { doneC <- applyC() }()
	select {
	case err := <-doneC:
		t.Fatalf("C applied (err %v) while B, reserved before it, had not started", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := applyB(); err != nil {
		t.Fatal(err)
	}
	if err := <-doneC; err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"PE-B-0"}, {"PE-B-0", "PE-C-0"}}; !reflect.DeepEqual(saw, want) {
		t.Fatalf("derives saw %v, want %v (B committed first)", saw, want)
	}
}
