package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/provenance"
)

// FuzzDecodeRow hardens the Table-1 row decoder against arbitrary XML:
// it must never panic, and whatever decodes successfully must re-encode.
func FuzzDecodeRow(f *testing.F) {
	good, err := EncodeNode(reqNode())
	if err != nil {
		f.Fatal(err)
	}
	edge, err := EncodeEdge(relEdge())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.ID, good.Class, good.AppID, good.XML)
	f.Add(edge.ID, edge.Class, edge.AppID, edge.XML)
	f.Add("x", "data", "A", `<ps:doc ps:id="x" ps:class="data"><ps:appID>A</ps:appID></ps:doc>`)
	f.Add("x", "galaxy", "A", "<broken")
	f.Add("", "", "", "")
	f.Fuzz(func(t *testing.T, id, class, appID, xml string) {
		n, e, err := DecodeRow(Row{ID: id, Class: class, AppID: appID, XML: xml})
		if err != nil {
			return // rejection is fine; panics are not
		}
		switch {
		case n != nil:
			if _, err := EncodeNode(n); err != nil {
				t.Fatalf("decoded node does not re-encode: %v", err)
			}
		case e != nil:
			if _, err := EncodeEdge(e); err != nil {
				t.Fatalf("decoded edge does not re-encode: %v", err)
			}
		default:
			t.Fatal("DecodeRow returned neither record nor error")
		}
	})
}

// ScanRow is DecodeRow's fast path, for the external test package.
var ScanRow = scanRow

// canonicalRows are rows as nodeRow and edgeRow write them, covering every
// Value kind, zero and non-zero timestamps, and every character
// xml.EscapeText rewrites. scanRow must accept each one.
func canonicalRows() []Row {
	ts := time.Date(2011, 4, 11, 9, 30, 0, 123456789, time.UTC)
	nasty := "q\" a' amp& lt< gt> tab\t nl\n cr\r fffd\uFFFD é 世界"
	lossy := nasty + " \x01\xff" // EscapeText writes U+FFFD for what XML cannot carry
	return []Row{
		nodeRow(reqNode()),
		edgeRow(relEdge()),
		nodeRow(&provenance.Node{ID: "n0", Class: provenance.ClassTask, Type: "approve", AppID: "A"}),
		edgeRow(&provenance.Edge{ID: "e0", Type: "next", AppID: "A", Source: "n0", Target: "n1"}),
		nodeRow(&provenance.Node{
			ID: "n<1>", Class: provenance.ClassCustom, Type: "alert.v-2_x", AppID: nasty, Timestamp: ts,
			Attrs: map[string]provenance.Value{
				"s": provenance.String(lossy), "empty": provenance.String(""),
				"i": provenance.Int(-42), "f": provenance.Float(-1.5e-7),
				"b": provenance.Bool(true), "t": provenance.Time(ts), "absent": {},
			},
		}),
		edgeRow(&provenance.Edge{
			ID: nasty, Type: nasty, AppID: "A&B", Source: "a'b", Target: "c\"d", Timestamp: ts,
			Attrs: map[string]provenance.Value{"w": provenance.Float(0.5), "note": provenance.String(lossy)},
		}),
	}
}

// declinedRows are rows outside scanRow's grammar, which it must hand to
// encoding/xml; accepted says whether DecodeRow as a whole then succeeds.
func declinedRows() []struct {
	row      Row
	accepted bool
} {
	node := func(xml string) Row { return Row{ID: "x", Class: "data", AppID: "A", XML: xml} }
	edge := func(xml string) Row { return Row{ID: "e", Class: "relation", AppID: "A", XML: xml} }
	const open, close = `<ps:doc ps:id="x" ps:class="data">`, `</ps:doc>`
	const app = `<ps:appID>A</ps:appID>`
	return []struct {
		row      Row
		accepted bool
	}{
		// Reordered system elements and attributes.
		{node(open + `<v kind="int">1</v>` + app + close), true},
		{node(`<ps:doc ps:class="data" ps:id="x">` + app + close), true},
		{edge(`<ps:relation ps:id="e" ps:class="relation" ps:type="t"><ps:target>b</ps:target><ps:source>a</ps:source>` + app + `</ps:relation>`), true},
		// Whitespace, comments, CDATA, trailing bytes.
		{node(open + "\n  " + app + "\n" + close), true},
		{node(open + app + `<!-- note -->` + close), true},
		{node(open + app + `<v kind="string"><![CDATA[a<b]]></v>` + close), true},
		{node(open + app + close + "\n"), true},
		{node(`<ps:doc ps:id="x"  ps:class="data">` + app + close), true},
		{node(`<ps:doc ps:id='x' ps:class="data">` + app + close), true},
		// Escape forms EscapeText does not write, raw characters it would have escaped.
		{node(open + app + `<v kind="string">&quot;&apos;&#x22;&#60;</v>` + close), true},
		{node(open + app + `<v kind="string">a>b "c" 'd'</v>` + close), true},
		{node(open + app + "<v kind=\"string\">a\tb\r\nc</v>" + close), true},
		// Namespaces and names beyond plain ASCII.
		{node(`<ps:doc xmlns="urn:x" ps:id="x" ps:class="data">` + app + close), true},
		{node(open + app + `<a:b kind="int">1</a:b>` + close), true},
		{node(open + app + `<é kind="int">1</é>` + close), true},
		// Duplicate attributes, an empty timestamp, a node carrying ps:type.
		{node(`<ps:doc ps:id="x" ps:id="y" ps:class="data">` + app + close), true},
		{node(open + app + `<ps:timestamp value=""/>` + close), true},
		{node(`<ps:doc ps:id="x" ps:class="data" ps:type="t">` + app + close), true},
		// Rows encoding/xml rejects too.
		{node(open + app + "<v kind=\"string\">\x01</v>" + close), false},
		{node(open + app + "<v kind=\"string\">\xff</v>" + close), false},
		{node(open + app + "<v kind=\"string\">\uFFFE</v>" + close), false},
		{node(open + app + `<v kind="string">&#x1;</v>` + close), false},
		{node(open + app + `<v kind="string">&bogus;</v>` + close), false},
		{node(open + app + `<v kind="int">one</v>` + close), false},
		{node(open + app + `<v kind="widget">1</v>` + close), false},
		{node(open + app + `<v kind="int">1</w>` + close), false},
		{node(open + app), false},
		{node(`<ps:doc ps:id="y" ps:class="data">` + app + close), false},
		{node(`<ps:doc ps:id="x" ps:class="data"><ps:appID>B</ps:appID>` + close), false},
		{node(`<ps:doc ps:id="x" ps:class="relation">` + app + close), false},
		{edge(`<ps:relation ps:id="e" ps:class="relation" ps:type="t">` + app + `<ps:source>a</ps:source><ps:target>a</ps:target></ps:relation>`), false},
		{edge(`<ps:relation ps:id="e" ps:class="relation">` + app + `<ps:source>a</ps:source><ps:target>b</ps:target></ps:relation>`), false},
	}
}

// TestScanRowGrammar pins which rows take the fast path: all the canonical
// ones, none of the declined ones — whose fate encoding/xml then decides.
func TestScanRowGrammar(t *testing.T) {
	for _, r := range canonicalRows() {
		n, e, ok := scanRow(r)
		if !ok {
			t.Errorf("canonical row declined: %s", r.XML)
			continue
		}
		wn, we, err := decodeRowXML(r)
		if err != nil || !reflect.DeepEqual(n, wn) || !reflect.DeepEqual(e, we) {
			t.Errorf("row %s: fast path read %v %v, encoding/xml %v %v (%v)", r.XML, n, e, wn, we, err)
		}
	}
	for _, c := range declinedRows() {
		if _, _, ok := scanRow(c.row); ok {
			t.Errorf("row outside the grammar accepted: %s", c.row.XML)
		}
		if _, _, err := DecodeRow(c.row); (err == nil) != c.accepted {
			t.Errorf("DecodeRow(%s) error = %v, want accepted=%v", c.row.XML, err, c.accepted)
		}
	}
	// Every truncation of a canonical row is declined or read identically:
	// the scanner never runs off the end.
	for _, r := range canonicalRows() {
		for i := range r.XML {
			cut := Row{ID: r.ID, Class: r.Class, AppID: r.AppID, XML: r.XML[:i]}
			if _, _, ok := scanRow(cut); ok {
				t.Fatalf("truncated row accepted: %s", cut.XML)
			}
		}
	}
}

// FuzzDecodeRowAgrees is the differential check of DecodeRow's two halves:
// for any row, scanRow either declines or returns exactly the record
// encoding/xml reads — and never accepts a row encoding/xml rejects.
func FuzzDecodeRowAgrees(f *testing.F) {
	for _, r := range canonicalRows() {
		f.Add(r.ID, r.Class, r.AppID, r.XML)
		// One mutation per escape keeps the corpus near the grammar's edge.
		f.Add(r.ID, r.Class, r.AppID, strings.Replace(r.XML, "&#34;", "&quot;", 1))
	}
	for _, c := range declinedRows() {
		f.Add(c.row.ID, c.row.Class, c.row.AppID, c.row.XML)
	}
	agree := func(t *testing.T, r Row) {
		n, e, ok := scanRow(r)
		if !ok {
			return
		}
		wn, we, err := decodeRowXML(r)
		if err != nil {
			t.Fatalf("fast path accepted a row encoding/xml rejects (%v): %q", err, r.XML)
		}
		if !reflect.DeepEqual(n, wn) || !reflect.DeepEqual(e, we) {
			t.Fatalf("fast path read %v %v, encoding/xml %v %v: %q", n, e, wn, we, r.XML)
		}
	}
	f.Fuzz(func(t *testing.T, id, class, appID, xml string) {
		agree(t, Row{ID: id, Class: class, AppID: appID, XML: xml})
		// The same strings as a record's content, in the row nodeRow writes
		// for it: arbitrary text goes through the escapes, an arbitrary
		// type name straight into the markup.
		agree(t, nodeRow(&provenance.Node{
			ID: id, Class: provenance.ClassData, Type: class, AppID: appID,
			Attrs: map[string]provenance.Value{"v": provenance.String(xml)},
		}))
	})
}

// FuzzReplayLog hardens crash recovery against arbitrary log bytes: the
// frame reader first, then the whole of Open over the same file — every
// opcode's apply, reconciliation, a promotion marker naming a segment the
// directory does not have (an error from Open, or a counted skip when a
// tombstone follows; never a panic, never a store that opens as if the
// marker's rows existed), a demotion marker naming one (a counted skip),
// PROVLOG1 and PROVLOG2 headers.
func FuzzReplayLog(f *testing.F) {
	f.Add([]byte(logMagic))
	f.Add([]byte("GARBAGE!"))
	f.Add([]byte{})
	payload := appendRowRecord(nil, opPutNode, Row{ID: "x", Class: "data", AppID: "A", XML: "<x/>"})
	f.Add(append([]byte(logMagic), payload...))
	for _, log := range promotionLogs(f) {
		f.Add(log)
	}
	for _, log := range commitFrameLogs(f) {
		f.Add(log)
	}
	for _, log := range demotionLogs(f) {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeFileHelper(dir, data); err != nil {
			t.Skip()
		}
		// Must not panic; errors and truncation are both acceptable.
		_, _ = replayLog(OSFS{}, logPath(dir), func(entry) error { return nil })
		s, err := Open(Options{Dir: dir, SkipValidation: true})
		if err != nil {
			return
		}
		defer s.Close()
		// No segment exists here, so a marker that replayed without error
		// and without a tombstone behind it would be a trace built from
		// nothing.
		dropped := map[string]bool{}
		entries := intactPrefix(data)
		for i := len(entries) - 1; i >= 0; i-- {
			switch e := entries[i]; {
			case e.op == opTraceDrop:
				dropped[e.app] = true
			case e.op == opPromote && !dropped[e.app]:
				resident := false
				for _, prior := range entries[:i] {
					// Records logged ahead of the marker make the trace
					// resident; the marker is then a no-op, not a restore.
					resident = resident || (prior.app == e.app && (prior.node != nil || prior.edge != nil))
				}
				if !resident {
					t.Fatalf("Open accepted a marker for trace %q naming absent segment %d", e.app, e.seg)
				}
			}
		}
	})
}

// promotionLogs builds seed logs around opPromote frames: a marker naming
// a segment that does not exist, alone, followed by deltas, followed by
// the tombstone that excuses it, cut short inside a valid frame, and torn.
func promotionLogs(tb testing.TB) [][]byte {
	tb.Helper()
	marker := frameBytes(entry{op: opPromote, app: "App01", gen: 3, seg: 7})
	deltaFrame := commitFrame(nodeRec(opPutNode, mkReq("PE9", "App01", "REQ009")))
	drop := frameBytes(entry{op: opTraceDrop, app: "App01", gen: 9})
	// A CRC-valid frame whose marker payload stops inside the segment ID.
	cut := appendEntry(nil, entry{op: opPromote, app: "App01", gen: 3, seg: 7})[:12]
	short := appendFrame(nil, func(b []byte) []byte { return append(b, cut...) })
	return [][]byte{
		joinFrames(marker),
		joinFrames(marker, deltaFrame),
		joinFrames(marker, deltaFrame, drop),
		joinFrames(marker, deltaFrame, drop, deltaFrame),
		joinFrames(hiringTraceLog(tb)[len(logMagic):], marker, deltaFrame),
		joinFrames(legacyHiringTraceLog(tb)[len(logMagic):], marker, deltaFrame),
		joinFrames(short, deltaFrame),
		joinFrames(marker[:len(marker)-2]),
	}
}

// demotionLogs builds seed logs around opDemote frames, none of which can
// evict (the directory has no segment): a marker behind the trace's records
// (skipped, the trace stays resident), one naming an absent trace (a
// no-op), one behind a tombstone, a marker in a PROVLOG1 log, cut short,
// and an intact frame of an opcode past opDemote (Open refuses it).
func demotionLogs(tb testing.TB) [][]byte {
	tb.Helper()
	marker := frameBytes(entry{op: opDemote, app: "App01", gen: 4, seg: 2})
	drop := frameBytes(entry{op: opTraceDrop, app: "App01", gen: 9})
	head := hiringTraceLog(tb)[len(logMagic):]
	legacy := append([]byte(legacyLogMagic), head...)
	unknown := appendFrame(nil, func(b []byte) []byte { return append(b, byte(opDemote+1), 0) })
	return [][]byte{
		joinFrames(marker),
		joinFrames(head, marker),
		joinFrames(head, marker, commitFrame(nodeRec(opPutNode, mkReq("PE10", "App01", "REQ010")))),
		joinFrames(head, drop, marker),
		append(legacy, marker...),
		joinFrames(head, marker[:len(marker)-3]),
		joinFrames(head, unknown, marker),
	}
}

// commitFrameLogs builds seed logs around commit frames whose CRC holds but
// whose payload does not parse: a string-table index past the table, a
// string length past the frame, a record count the bytes cannot hold, an
// unknown record opcode, a value its kind cannot read, a trailing byte.
// Each must read as a torn frame — the intact frames before it replay,
// nothing after it does — never as a panic or a shorter request.
func commitFrameLogs(tb testing.TB) [][]byte {
	tb.Helper()
	good := appendCommit(nil, []entry{
		nodeRec(opPutNode, mkReq("PE9", "App01", "REQ009")),
		nodeRec(opPutNode, mkPerson("PE8", "App01", "Ann")),
		edgeRec(mkSubmitter("PE7", "App01", "PE8", "PE9")),
	})
	// good is opCommit, the table size (byte 1), the table — the first
	// string's length is byte 2 — then the record count at tableEnd, the
	// first record's opcode and its trace's table index.
	tableEnd := 1
	n, k := binary.Uvarint(good[tableEnd:])
	for tableEnd += k; n > 0; n-- {
		l, k := binary.Uvarint(good[tableEnd:])
		tableEnd += k + int(l)
	}
	mutate := func(at int, b byte) []byte {
		p := bytes.Clone(good)
		p[at] = b
		return appendFrame(nil, func(dst []byte) []byte { return append(dst, p...) })
	}
	bad := [][]byte{
		mutate(1, 0x7f),          // table size past the frame
		mutate(2, 0x7f),          // first string's length past the frame
		mutate(tableEnd, 0x7f),   // record count the bytes cannot hold
		mutate(tableEnd+1, 0x42), // unknown record opcode
		mutate(tableEnd+2, 0x7f), // trace index past the table
		appendFrame(nil, func(dst []byte) []byte { return append(append(dst, good...), 0) }),
		appendFrame(nil, func(dst []byte) []byte {
			return appendCommit(dst, []entry{{op: opPutNode, app: "A", node: &provenance.Node{ID: "x", Class: provenance.ClassData,
				Type: "t", AppID: "A", Attrs: map[string]provenance.Value{"n": provenance.String("not-an-int")}}}})
		}),
	}
	// The last one is a string attribute relabelled as an int.
	last := bad[len(bad)-1]
	i := bytes.Index(last, []byte("not-an-int"))
	last[i-2] = byte(provenance.KindInt)
	binary.LittleEndian.PutUint32(last[4:], crc32.ChecksumIEEE(last[8:]))

	head := hiringTraceLog(tb)
	out := [][]byte{head}
	for _, b := range bad {
		out = append(out, joinFrames(head[len(logMagic):], b, commitFrame(nodeRec(opPutNode, mkReq("PE10", "App01", "REQ010")))))
	}
	return out
}

func joinFrames(parts ...[]byte) []byte {
	out := []byte(logMagic)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// frameBytes builds one CRC-framed log frame for a compaction marker or a
// trace entry.
func frameBytes(e entry) []byte { return appendEntryFrame(nil, e) }

// appendCommit appends the opCommit payload of a run of record entries,
// uncut.
func appendCommit(dst []byte, recs []entry) []byte {
	var c commitEnc
	for _, e := range recs {
		c.record(e)
	}
	return c.payload(dst)
}

// appendCommitFrame appends the opCommit frame of a run of record entries.
func appendCommitFrame(dst []byte, recs []entry) []byte {
	return appendFrame(dst, func(b []byte) []byte { return appendCommit(b, recs) })
}

// commitFrame builds the commit frame of records committed as one request.
func commitFrame(recs ...entry) []byte { return appendCommitFrame(nil, recs) }

// rowFrame builds a legacy row frame, as logs written before opCommit hold.
func rowFrame(op opcode, r Row) []byte {
	return appendFrame(nil, func(b []byte) []byte { return appendRowRecord(b, op, r) })
}

// nodeRec and edgeRec are the log entries a commit builds for a record.
func nodeRec(op opcode, n *provenance.Node) entry {
	return mustCanon(entry{op: op, app: n.AppID, node: n})
}

func edgeRec(e *provenance.Edge) entry {
	return mustCanon(entry{op: opPutEdge, app: e.AppID, edge: e})
}

func mustCanon(e entry) entry {
	c, err := canonEntry(e)
	if err != nil {
		panic(err)
	}
	return c
}

// hiringTraceLog builds an intact log holding a realistic hiring trace —
// a job requisition and its submitter with the submitterOf relation in one
// request, a compaction marker, an enrichment update — as the seed corpus
// base.
func hiringTraceLog(tb testing.TB) []byte {
	tb.Helper()
	return joinFrames(
		commitFrame(
			nodeRec(opPutNode, mkReq("PE3", "App01", "REQ001")),
			nodeRec(opPutNode, mkPerson("PE1", "App01", "Joe Smith")),
			edgeRec(mkSubmitter("PE7", "App01", "PE1", "PE3")),
		),
		frameBytes(entry{op: opCompactMark, gen: 1}),
		commitFrame(nodeRec(opUpdateNode, mkReq("PE3", "App01", "REQ001-amended"))),
	)
}

// legacyHiringTraceLog is hiringTraceLog as the parent format wrote it:
// one row frame per record.
func legacyHiringTraceLog(tb testing.TB) []byte {
	tb.Helper()
	return joinFrames(
		rowFrame(opPutNode, nodeRow(mkReq("PE3", "App01", "REQ001"))),
		rowFrame(opPutNode, nodeRow(mkPerson("PE1", "App01", "Joe Smith"))),
		rowFrame(opPutEdge, edgeRow(mkSubmitter("PE7", "App01", "PE1", "PE3"))),
		frameBytes(entry{op: opCompactMark, gen: 1}),
		rowFrame(opUpdateNode, nodeRow(mkReq("PE3", "App01", "REQ001-amended"))),
	)
}

// intactPrefix scans raw log bytes exactly as recovery does and returns
// the entries of the longest intact frame prefix (markers excluded).
func intactPrefix(data []byte) []entry {
	if len(data) < len(logMagic) || checkMagic("", data[:len(logMagic)]) != nil {
		return nil
	}
	r := bufio.NewReader(bytes.NewReader(data[len(logMagic):]))
	var out []entry
	for {
		es, _, err := readFrame(r)
		if err != nil {
			return out // io.EOF and torn frames both end the prefix
		}
		for _, e := range es {
			if e.op != opCompactMark {
				out = append(out, e)
			}
		}
	}
}

// FuzzReplayPrefixConsistency drives replayLog with mutated log bytes —
// bit flips, truncations, oversized length prefixes — and asserts the two
// recovery invariants: replay never panics, and it never applies a record
// past the first corrupt frame (applied entries are exactly the longest
// intact frame prefix). It also checks the truncation is idempotent: a
// second replay of the repaired file applies the same entries and drops
// nothing.
func FuzzReplayPrefixConsistency(f *testing.F) {
	base := hiringTraceLog(f)
	f.Add(base)
	f.Add(legacyHiringTraceLog(f))
	// Bit flips at header, mid-frame and tail positions.
	for _, pos := range []int{3, len(logMagic) + 2, len(base)/2 + 1, len(base) - 2} {
		mut := bytes.Clone(base)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	// Truncations mid-header and mid-payload.
	f.Add(bytes.Clone(base[:len(logMagic)+3]))
	f.Add(bytes.Clone(base[:len(base)-5]))
	// Oversized length prefix splices a garbage frame between intact ones.
	over := bytes.Clone(base[:len(logMagic)])
	over = append(over, rowFrame(opPutNode, Row{ID: "a", Class: "data", AppID: "A", XML: "<a/>"})...)
	over = append(over, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	over = append(over, base[len(logMagic):]...)
	f.Add(over)
	// Promotion markers between intact frames, whole and damaged.
	for _, log := range promotionLogs(f) {
		f.Add(log)
		mut := bytes.Clone(log)
		mut[len(logMagic)+9] ^= 0x01 // inside the marker's payload
		f.Add(mut)
	}
	for _, log := range commitFrameLogs(f) {
		f.Add(log)
	}
	for _, log := range demotionLogs(f) {
		f.Add(log)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeFileHelper(dir, data); err != nil {
			t.Skip()
		}
		var applied []entry
		res, err := replayLog(OSFS{}, logPath(dir), func(e entry) error {
			applied = append(applied, e)
			return nil
		})
		if err != nil {
			return // bad magic / unreadable header: rejected wholesale
		}
		want := intactPrefix(data)
		if len(applied) != len(want) || !reflect.DeepEqual(applied, want) {
			t.Fatalf("replay applied %d entries, intact prefix has %d", len(applied), len(want))
		}
		// Replay repaired the file in place; a second pass must agree and
		// find nothing left to drop.
		var again []entry
		res2, err := replayLog(OSFS{}, logPath(dir), func(e entry) error {
			again = append(again, e)
			return nil
		})
		if err != nil {
			t.Fatalf("replay of repaired log failed: %v", err)
		}
		if res2.dropped != 0 {
			t.Fatalf("repaired log dropped %d more bytes (first pass dropped %d)", res2.dropped, res.dropped)
		}
		if !reflect.DeepEqual(again, applied) {
			t.Fatalf("repaired log replays %d entries, first pass applied %d", len(again), len(applied))
		}
	})
}

func writeFileHelper(dir string, data []byte) error {
	return os.WriteFile(logPath(dir), data, 0o644)
}
