package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/provenance"
)

// The store keeps every record once, in the graph, and derives its
// Table-1 row on demand. That is only sound if the derived row is
// byte-identical to the row the log frame carried when the record was
// committed — on every path a row can take afterwards. This file pins it.

// hostile is the alphabet value strings are drawn from: everything XML
// escaping, attribute normalisation or a decoder's whitespace handling
// could get wrong, plus code points XML cannot carry at all (the encoder
// replaces those with U+FFFD, and must do so idempotently).
var hostile = []string{
	"<", ">", "&", `"`, "'", "]]>", "<!--", "</v>", "&amp;", "&#x0;", "<?xml?>",
	"\r", "\n", "\r\n", "\t", " ", "  ", "ps:", "=",
	"\u00e9", "\u65e5\u672c", "\U0001F600", "\u00a0", "\u0085", "\u2028", "\ufffd", "a", "Z", "0",
	"\x00", "\x1f", "\ufffe", "\xff", "\xed\xa0\x80",
}

// hostileID is the subset IDs may use: the store rejects an ID XML cannot
// carry (its frame would name a different record), and trace IDs travel
// through segment footers as JSON, which wants valid UTF-8.
var hostileID = hostile[:len(hostile)-5]

func randText(rng *rand.Rand, alphabet []string, max int) string {
	var b bytes.Buffer
	for n := rng.Intn(max + 1); n > 0; n-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// randValue covers every Kind, the absent Value, and each kind's zero and
// edge values.
func randValue(rng *rand.Rand) provenance.Value {
	switch rng.Intn(12) {
	case 0:
		return provenance.Value{} // absent: the encoder must skip it
	case 1:
		return provenance.String("")
	case 2, 3, 4:
		return provenance.String(randText(rng, hostile, 6))
	case 5:
		return provenance.Int([]int64{0, -1, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(5)])
	case 6:
		return provenance.Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, rng.NormFloat64()}[rng.Intn(9)])
	case 7:
		return provenance.Bool(rng.Intn(2) == 0)
	case 8:
		return provenance.Time(time.Time{})
	default:
		return provenance.Time(randTime(rng))
	}
}

func randTime(rng *rand.Rand) time.Time {
	t := time.Unix(rng.Int63n(4e9), 0)
	if rng.Intn(2) == 0 {
		t = t.Add(time.Duration(rng.Int63n(1e9)))
	}
	if rng.Intn(2) == 0 {
		t = t.In(time.FixedZone("x", (rng.Intn(27)-13)*3600+rng.Intn(2)*1800))
	}
	return t
}

func randAttrs(rng *rand.Rand) provenance.Attrs {
	names := []string{"v", "reqID", "kind", "a1", "Z_z", "x-y.z", "名前"}
	var attrs provenance.Attrs
	for n := rng.Intn(6); n > 0; n-- {
		attrs.Set(names[rng.Intn(len(names))], randValue(rng))
	}
	return attrs
}

// rowOracle is the test's record of what every log frame said.
type rowOracle struct {
	t    *testing.T
	rng  *rand.Rand
	want map[string]Row      // record ID -> the row in its newest log frame
	apps map[string][]string // trace -> node IDs, in insertion order
	next int
}

func (o *rowOracle) id(kind string) string {
	o.next++
	return fmt.Sprintf("%s%d-%s", kind, o.next, randText(o.rng, hostileID, 3))
}

func (o *rowOracle) node(app string) *provenance.Node {
	classes := []provenance.Class{provenance.ClassData, provenance.ClassTask, provenance.ClassResource, provenance.ClassCustom}
	types := []string{"doc", "jobRequisition", "approval_Step", "t-1.x", "種類"}
	n := &provenance.Node{
		ID: o.id("n"), Class: classes[o.rng.Intn(len(classes))], Type: types[o.rng.Intn(len(types))],
		AppID: app, Attrs: randAttrs(o.rng),
	}
	if o.rng.Intn(3) > 0 {
		n.Timestamp = randTime(o.rng)
	}
	return n
}

// write commits a random mix of PutNode / UpdateNode / PutEdge to app.
func (o *rowOracle) write(s *Store, app string, n int) {
	o.t.Helper()
	for i := 0; i < n; i++ {
		ids := o.apps[app]
		switch k := o.rng.Intn(4); {
		case len(ids) < 2 || k == 0:
			nd := o.node(app)
			if err := s.PutNode(nd); err != nil {
				o.t.Fatalf("PutNode %q: %v", nd.ID, err)
			}
			o.apps[app] = append(ids, nd.ID)
		case k == 1:
			old := s.Node(ids[o.rng.Intn(len(ids))])
			upd := old.Clone()
			upd.Attrs, upd.Timestamp = randAttrs(o.rng), randTime(o.rng)
			if err := s.UpdateNode(upd); err != nil {
				o.t.Fatalf("UpdateNode %q: %v", upd.ID, err)
			}
		default:
			src := o.rng.Intn(len(ids))
			dst := (src + 1 + o.rng.Intn(len(ids)-1)) % len(ids) // self loops are rejected
			e := &provenance.Edge{
				ID: o.id("e"), Type: []string{"actor", "generates", "r.t-2"}[o.rng.Intn(3)], AppID: app,
				Source: ids[src], Target: ids[dst], Attrs: randAttrs(o.rng),
			}
			if o.rng.Intn(2) == 0 {
				e.Timestamp = randTime(o.rng)
			}
			if err := s.PutEdge(e); err != nil {
				o.t.Fatalf("PutEdge %q: %v", e.ID, err)
			}
		}
	}
}

// readLog folds the store's log frames into the oracle (newest frame per
// record wins) and returns the IDs the log currently holds. Every commit
// flushed its batch, so the file is complete while the writers are idle.
func (o *rowOracle) readLog(dir string) map[string]bool {
	o.t.Helper()
	inLog := map[string]bool{}
	_, err := replayLog(OSFS{}, logPath(dir), func(e entry) error {
		r, ok := entryRow(e)
		if !ok {
			return nil
		}
		if prev, ok := o.want[r.ID]; ok && e.op != opUpdateNode && prev != r {
			o.t.Errorf("log re-states %q differently:\n was %q\n now %q", r.ID, prev.XML, r.XML)
		}
		o.want[r.ID] = r
		inLog[r.ID] = true
		return nil
	})
	if err != nil {
		o.t.Fatal(err)
	}
	return inLog
}

// entryRow renders the Table-1 row of a log entry's record.
func entryRow(e entry) (Row, bool) {
	switch {
	case e.node != nil:
		return nodeRow(e.node), true
	case e.edge != nil:
		return edgeRow(e.edge), true
	}
	return Row{}, false
}

// frameOpcodes lists the opcode of every frame of dir's main log.
func frameOpcodes(t *testing.T, dir string) []opcode {
	t.Helper()
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var ops []opcode
	for p := raw[len(logMagic):]; len(p) >= 8; {
		n := int(binary.LittleEndian.Uint32(p))
		ops = append(ops, opcode(p[8]))
		p = p[8+n:]
	}
	return ops
}

// check asserts that every read path of s states every record exactly as
// its log frame did.
func (o *rowOracle) check(stage string, s *Store) {
	o.t.Helper()
	for id, want := range o.want {
		got, ok := s.Row(id)
		if !ok {
			o.t.Errorf("%s: Row(%q) missing", stage, id)
		} else if got != want {
			o.t.Errorf("%s: Row(%q)\n got %q\nwant %q", stage, id, got.XML, want.XML)
		}
	}
	seen := 0
	for app := range o.apps {
		rows := s.RowsForApp(app)
		if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID }) {
			o.t.Errorf("%s: RowsForApp(%q) not sorted by ID", stage, app)
		}
		for _, r := range rows {
			seen++
			if want := o.want[r.ID]; r != want {
				o.t.Errorf("%s: RowsForApp(%q) row %q\n got %q\nwant %q", stage, app, r.ID, r.XML, want.XML)
			}
		}
	}
	if seen != len(o.want) {
		o.t.Errorf("%s: RowsForApp served %d rows over all traces, want %d", stage, seen, len(o.want))
	}
	// ExportRows covers the hot tier only; what it states must agree too.
	var buf bytes.Buffer
	if err := s.ExportRows(&buf); err != nil {
		o.t.Fatal(err)
	}
	dec := json.NewDecoder(bufio.NewReader(&buf))
	for {
		var r Row
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			o.t.Fatal(err)
		}
		if want := o.want[r.ID]; r != want {
			o.t.Errorf("%s: ExportRows row %q\n got %q\nwant %q", stage, r.ID, r.XML, want.XML)
		}
	}
}

// TestRowsByteExactOnEveryPath: random PutNode/UpdateNode/PutEdge with
// escaping-hostile strings, absent and zero-valued attributes and every
// Kind; then every record's Row must equal the rendering of the record
// its log frame carried — hot, with the log reopened, after Compact, cold
// after DemoteTraces, from the segment reopened, after promote-on-write,
// promoted by reference and reopened (the base
// rows come back out of the segment the log's marker names), in a second
// store fed by ExportTraces -> ImportSegment, and after close/reopen — and
// every row the encoder produced must be a fixed point of Encode∘Decode.
// It fails the moment the graph stops being a faithful source for Table 1.
func TestRowsByteExactOnEveryPath(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			open := func(dir string) *Store {
				s, err := Open(Options{Dir: dir, SkipValidation: true, SegmentBlockBytes: 1 << 10})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			s := open(dir)
			o := &rowOracle{t: t, rng: rng, want: map[string]Row{}, apps: map[string][]string{}}
			var apps []string
			for i := 0; i < 6; i++ {
				app := fmt.Sprintf("app%d-%s", i, randText(rng, hostileID, 2))
				apps = append(apps, app)
				o.apps[app] = nil
				o.write(s, app, 12+rng.Intn(12))
			}

			inLog := o.readLog(dir)
			if len(inLog) != len(o.want) || len(o.want) < 6*12/2 {
				t.Fatalf("log holds %d records, oracle %d", len(inLog), len(o.want))
			}
			for id, row := range o.want {
				n, e, err := DecodeRow(row)
				if err != nil {
					t.Fatalf("row %q does not decode: %v", id, err)
				}
				again := Row{}
				if n != nil {
					again, err = EncodeNode(n)
				} else {
					again, err = EncodeEdge(e)
				}
				if err != nil || again != row {
					t.Errorf("Encode(Decode(row %q)) (err %v)\n got %q\nwant %q", id, err, again.XML, row.XML)
				}
			}
			o.check("committed", s)

			// The same state from disk: commit frames, update chains and
			// all.
			vers := map[string]uint64{}
			for _, app := range apps {
				vers[app] = s.TraceVersion(app)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open(dir)
			o.check("new-frame log, reopened", s)
			for _, app := range apps {
				if s.TraceVersion(app) != vers[app] {
					t.Errorf("%s version: %d live, %d reopened", app, vers[app], s.TraceVersion(app))
				}
			}

			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := o.readLog(dir); len(got) != len(o.want) {
				t.Errorf("compacted log holds %d records, want %d", len(got), len(o.want))
			}
			o.check("compacted", s)

			rewrites := s.Durability().LogRewrites
			if err := s.DemoteTraces(apps[:4]...); err != nil {
				t.Fatal(err)
			}
			if got := s.Tiering().ResidentTraces; got != 2 {
				t.Fatalf("resident traces after demotion = %d, want 2", got)
			}
			if s.Durability().LogRewrites == rewrites {
				t.Fatal("DemoteTraces did not rewrite the log")
			}
			for id := range o.readLog(dir) {
				if app := o.want[id].AppID; app != apps[4] && app != apps[5] {
					t.Errorf("demoted record %q still in the rewritten log", id)
				}
			}
			o.check("demoted", s)

			// The sealed state from disk.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open(dir)
			o.check("segment, reopened", s)

			// Promote-on-write: late nodes, updates and edges land on two
			// sealed traces. Each is promoted by reference: the log gets a
			// marker and the deltas, the base rows stay in the segment.
			sealedIDs := map[string]bool{}
			for _, app := range apps[:2] {
				for _, r := range s.RowsForApp(app) {
					sealedIDs[r.ID] = true
				}
			}
			o.write(s, apps[0], 3)
			o.write(s, apps[1], 3)
			if ti := s.Tiering(); ti.PromotedTraces != 2 || ti.SegmentBackedTraces != 2 {
				t.Fatalf("tiering = %+v, want 2 promoted, both segment-backed", ti)
			}
			o.readLog(dir)
			for _, e := range logEntries(t, dir) {
				// An update re-states a sealed record; nothing else may.
				if r, _ := entryRow(e); sealedIDs[r.ID] && e.op != opUpdateNode {
					t.Errorf("promotion copied sealed record %q into the log", r.ID)
				}
			}
			o.check("promoted", s)

			// The same state rebuilt from disk: replay restores both traces
			// from the segment their markers name, then applies the deltas.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open(dir)
			if ti := s.Tiering(); ti.ResidentTraces != 4 || ti.SegmentBackedTraces != 2 {
				t.Fatalf("reopened tiering = %+v, want 4 resident, 2 segment-backed", ti)
			}
			o.check("promoted by reference, reopened", s)

			// Demotion by marker: a periodic compaction below the rewrite
			// floor seals a promoted trace and a never-sealed one, commits
			// their markers and leaves their records in the log.
			rewrites = s.Durability().LogRewrites
			byMarker := func(app string, _, _ uint64) bool { return app == apps[0] || app == apps[4] }
			if err := s.compact(byMarker, false); err != nil {
				t.Fatal(err)
			}
			inLog = o.readLog(dir)
			if s.Durability().LogRewrites != rewrites || !inLog[o.apps[apps[4]][0]] {
				t.Fatalf("a compaction below the floor rewrote the log (%d -> %d rewrites)", rewrites, s.Durability().LogRewrites)
			}
			if ti := s.Tiering(); ti.ResidentTraces != 2 {
				t.Fatalf("tiering after the markers = %+v, want 2 resident", ti)
			}
			o.check("demoted by marker", s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open(dir)
			if ti := s.Tiering(); ti.ResidentTraces != 2 {
				t.Fatalf("reopened tiering = %+v, want the markers to evict again", ti)
			}
			o.check("demoted by marker, reopened", s)

			// Handoff: hot and sealed traces alike ship as sealed rows and
			// re-enter a second store through its validated write path.
			var wire bytes.Buffer
			if _, err := s.ExportTraces(&wire, apps); err != nil {
				t.Fatal(err)
			}
			dir2 := t.TempDir()
			s2 := open(dir2)
			if ins, skipped, err := s2.ImportSegment(&wire); err != nil || ins != len(o.want) || skipped != 0 {
				t.Fatalf("ImportSegment = %d inserted, %d skipped, err %v; want %d, 0, nil", ins, skipped, err, len(o.want))
			}
			o2 := &rowOracle{t: t, rng: rng, want: map[string]Row{}, apps: o.apps}
			o2.readLog(dir2)
			for id, want := range o.want {
				if got := o2.want[id]; got != want {
					t.Errorf("imported log frame %q\n got %q\nwant %q", id, got.XML, want.XML)
				}
			}
			o.check("imported", s2)

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			o.check("reopened", open(dir))
		})
	}
}

// sameRecordValue is strict equality of two attribute values, down to a
// timestamp's location and monotonic reading (NaN equals NaN).
func sameRecordValue(a, b provenance.Value) bool {
	return a.Kind() == b.Kind() && a.Text() == b.Text() && a.TimeVal() == b.TimeVal()
}

func sameAttrs(a, b provenance.Attrs) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if y := b[i]; x.Name != y.Name || !sameRecordValue(x.Value, y.Value) {
			return false
		}
	}
	return true
}

// TestLiveRecordEqualsDecodedRow pins what lets a live commit skip the XML
// decode: the record carried beside a row (liveNode / liveEdge) is, field
// for field, the record DecodeRow makes of that row — or nil, which sends
// apply down the decode path. Hostile strings, absent and zero attributes,
// every Kind, zoned timestamps.
func TestLiveRecordEqualsDecodedRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := &rowOracle{t: t, rng: rng}
	carried := 0
	for i := 0; i < 3000; i++ {
		n := o.node(randText(rng, hostileID, 2) + "A")
		if rng.Intn(4) == 0 {
			n.Timestamp = time.Now() // carries a monotonic reading
		}
		if ln := liveNode(n); ln != nil {
			carried++
			dn, _, err := DecodeRow(nodeRow(n))
			if err != nil {
				t.Fatalf("carried %q, but its row does not decode: %v", n.ID, err)
			}
			if ln.ID != dn.ID || ln.Class != dn.Class || ln.Type != dn.Type || ln.AppID != dn.AppID ||
				ln.Timestamp != dn.Timestamp || !sameAttrs(ln.Attrs, dn.Attrs) {
				t.Fatalf("live record differs from its decoded row:\n live    %#v\n decoded %#v", ln, dn)
			}
		}
		e := &provenance.Edge{ID: o.id("e"), Type: randText(rng, hostile, 2) + "t", AppID: n.AppID,
			Source: o.id("n"), Target: o.id("n"), Timestamp: n.Timestamp, Attrs: randAttrs(rng)}
		if le := liveEdge(e); le != nil {
			_, de, err := DecodeRow(edgeRow(e))
			if err != nil {
				t.Fatalf("carried %q, but its row does not decode: %v", e.ID, err)
			}
			if le.ID != de.ID || le.Type != de.Type || le.AppID != de.AppID || le.Source != de.Source ||
				le.Target != de.Target || le.Timestamp != de.Timestamp || !sameAttrs(le.Attrs, de.Attrs) {
				t.Fatalf("live edge differs from its decoded row:\n live    %#v\n decoded %#v", le, de)
			}
		}
	}
	if carried < 300 {
		t.Fatalf("only %d of 3000 random nodes took the carried path; the generator no longer covers it", carried)
	}
}

// TestCommitDoesNotAliasCallerRecords: the store keeps its own copy of a
// committed record, so a caller mutating what it passed in — after the
// put returns — changes neither the stored record, nor its row, nor the
// change-feed event.
func TestCommitDoesNotAliasCallerRecords(t *testing.T) {
	s := memStore(t)
	sub := s.Subscribe()
	defer sub.Cancel()
	n := &provenance.Node{ID: "n1", Class: provenance.ClassResource, Type: "person", AppID: "A",
		Timestamp: time.Unix(100, 0).UTC(),
		Attrs:     provenance.AttrsOf(map[string]provenance.Value{"name": provenance.String("Ann")})}
	m := mkReq("n2", "A", "R1")
	e := &provenance.Edge{ID: "e1", Type: "submitterOf", AppID: "A", Source: "n1", Target: "n2",
		Attrs: provenance.AttrsOf(map[string]provenance.Value{"score": provenance.Int(1)})}
	res := s.Commit(Batch{Nodes: []*provenance.Node{n, m}, Edges: []*provenance.Edge{e}})
	for _, err := range append(res.Nodes, res.Edges...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	row, _ := s.Row("n1")

	n.SetAttr("name", provenance.String("MUTATED"))
	n.SetAttr("extra", provenance.Int(9))
	n.Timestamp, n.Type = time.Unix(999, 0), "other"
	e.SetAttr("score", provenance.Int(99))
	e.Target = "n1"

	if got := s.Node("n1"); got.Attr("name").Str() != "Ann" || !got.Attr("extra").IsZero() ||
		got.Type != "person" || !got.Timestamp.Equal(time.Unix(100, 0)) {
		t.Fatalf("stored node follows the caller's mutations: %v", got)
	}
	if got := s.Edge("e1"); got.Attr("score").IntVal() != 1 || got.Target != "n2" {
		t.Fatalf("stored edge follows the caller's mutations: %v", got)
	}
	if after, _ := s.Row("n1"); after != row {
		t.Fatalf("row changed:\n before %v\n after  %v", row, after)
	}
	for i := 0; i < 3; i++ {
		ev := <-sub.C()
		if ev.Node != nil && ev.Node.ID == "n1" && ev.Node.Attr("name").Str() != "Ann" {
			t.Fatalf("feed event follows the caller's mutations: %v", ev.Node)
		}
		if ev.Edge != nil && (ev.Edge.Attr("score").IntVal() != 1 || ev.Edge.Target != "n2") {
			t.Fatalf("feed event follows the caller's mutations: %v", ev.Edge)
		}
	}
}
