package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// FuzzReplayLog hardens crash recovery against arbitrary log bytes: the
// frame reader first, then the whole of Open over the same file — every
// opcode's apply, reconciliation, a promotion marker naming a segment the
// directory does not have (an error from Open, or a counted skip when a
// tombstone follows; never a panic, never a store that opens as if the
// marker's rows existed), a demotion marker naming one (a counted skip),
// and the retired PROVLOG1 header and row frames (refused).
func FuzzReplayLog(f *testing.F) {
	for _, log := range replayLogSeeds(f) {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeFileHelper(dir, data); err != nil {
			t.Skip()
		}
		// Must not panic; errors and truncation are both acceptable.
		_, _ = replayLog(OSFS{}, logPath(dir), nil, func(entry) error { return nil }, nil)
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
		replaysAgree(t, func() string {
			dir := t.TempDir()
			if err := writeFileHelper(dir, data); err != nil {
				t.Fatal(err)
			}
			return dir
		})
	})
}

// replaysAgree opens two copies of one data dir, each made by fresh, with
// the model's indexes: one replaying commit frames run by run, one record
// by record. Both must fail, or both open to the same state (replayState).
func replaysAgree(t *testing.T, fresh func() string) {
	t.Helper()
	var states [2]string
	var errs [2]error
	for i, byRun := range []bool{true, false} {
		replayByRun = byRun
		s, err := Open(Options{Dir: fresh(), Model: testModel(t), SkipValidation: true})
		replayByRun = true
		if errs[i] = err; err == nil {
			states[i] = replayState(s)
			s.Close()
		}
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("replay by run: %v; record by record: %v", errs[0], errs[1])
	}
	if states[0] != states[1] {
		t.Fatalf("replay by run and record by record disagree:\nby run\n%s\nby record\n%s", states[0], states[1])
	}
}

// replayState renders what a replay rebuilt: the sequence and the replay
// counters; every trace's version, last-touch and rows, and the trace each
// row's ID routes to; every posting list of the attribute index.
func replayState(s *Store) string {
	var b strings.Builder
	snap := s.loadSnap()
	d := s.Durability()
	fmt.Fprintf(&b, "seq %d skipped %d dropped %d\n", snap.seq, d.ReplaySkipped, d.ReplayDroppedBytes)
	for _, app := range s.AppIDs() {
		fmt.Fprintf(&b, "%s v%d t%d\n", app, s.TraceVersion(app), snap.graph.TraceLastTouch(app))
		for _, r := range s.RowsForApp(app) {
			byID, _ := s.Row(r.ID)
			fmt.Fprintf(&b, "  %s %s %s\n", r.ID, r.XML, byID.AppID)
		}
	}
	for i := range snap.idx.vals {
		var lists []string
		snap.idx.vals[i].Range(func(k string, ids []string) { lists = append(lists, fmt.Sprint(k, ids)) })
		slices.Sort(lists)
		fmt.Fprintf(&b, "index %d %v\n", i, lists)
	}
	return b.String()
}

// TestReplayByRunAgreesWithPerRecord replays one log run by run and record
// by record (replaysAgree). The log mixes whole traces, a trace split
// across two commit payloads, an update, a drop, a promotion marker, a run
// whose edge reaches into another trace, one holding another trace's
// record ID and one whose edge has a node's ID; the last three replay
// record by record, which skips the offending records.
func TestReplayByRunAgreesWithPerRecord(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	seedTrace(t, s, "P", 2)
	if err := s.DemoteTraces("P"); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments()[0].ID
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var log []byte
	// A and B whole, and C's first part.
	log = appendCommitFrame(log, []entry{
		nodeRec(opPutNode, mkPerson("A-p", "A", "Ann")),
		nodeRec(opPutNode, mkReq("A-r1", "A", "REQ-A1")),
		edgeRec(mkSubmitter("A-e", "A", "A-p", "A-r1")),
		nodeRec(opPutNode, mkReq("B-r1", "B", "REQ-1")),
		nodeRec(opPutNode, mkReq("B-r2", "B", "REQ-1")),
		nodeRec(opPutNode, mkReq("C-r1", "C", "REQ-C1")),
	})
	// C's second part, onto a resident C.
	log = appendCommitFrame(log, []entry{
		nodeRec(opPutNode, mkPerson("C-p", "C", "Cy")),
		edgeRec(mkSubmitter("C-e", "C", "C-p", "C-r1")),
	})
	log = appendCommitFrame(log, []entry{nodeRec(opUpdateNode, mkReq("A-r1", "A", "REQ-A1-amended"))})
	log = appendCommitFrame(log, []entry{nodeRec(opPutNode, mkReq("D-r1", "D", "REQ-D1"))})
	log = append(log, frameBytes(entry{op: opTraceDrop, app: "D", gen: 1})...)
	log = append(log, frameBytes(entry{op: opPromote, app: "P", gen: 4, seg: seg})...)
	log = appendCommitFrame(log, []entry{nodeRec(opPutNode, mkReq("P-late", "P", "REQ-P-LATE"))})
	log = appendCommitFrame(log, []entry{
		nodeRec(opPutNode, mkPerson("E-p", "E", "Eve")),
		edgeRec(mkSubmitter("E-e", "E", "E-p", "A-r1")),
		nodeRec(opPutNode, mkReq("A-r1", "F", "REQ-F1")),
		nodeRec(opPutNode, mkReq("F-r2", "F", "REQ-F2")),
		nodeRec(opPutNode, mkPerson("G-p", "G", "Gus")),
		nodeRec(opPutNode, mkReq("G-r", "G", "REQ-G")),
		edgeRec(mkSubmitter("G-r", "G", "G-p", "G-r")),
	})
	appendFrames(t, dir, log)

	runs, _, err := decodeTraces(commitPayloads(append([]byte(logMagic), log...))[0], nil, func(string) bool { return false })
	if err != nil || len(runs) != 3 || !runs[0].whole || !runs[1].whole || !runs[2].whole {
		t.Fatalf("the first payload decodes to %d runs (%v), want A, B and C, each whole", len(runs), err)
	}
	replaysAgree(t, func() string { return copyDir(t, dir) })
	s = tierStore(t, copyDir(t, dir), nil)
	for app, want := range map[string]uint64{"A": 4, "B": 2, "C": 3, "D": 0, "E": 1, "F": 1, "G": 2, "P": 5} {
		if got := s.TraceVersion(app); got != want {
			t.Errorf("%s at version %d, want %d", app, got, want)
		}
	}
	if got := s.Durability().ReplaySkipped; got != 3 {
		t.Errorf("replay skipped %d records, want the crossing edge and the two duplicate IDs", got)
	}
}

// replayLogSeeds are FuzzReplayLog's seed logs.
func replayLogSeeds(tb testing.TB) [][]byte {
	logs := [][]byte{
		[]byte(logMagic),
		[]byte("GARBAGE!"),
		{},
		joinFrames(rowFrame(opPutNode, Row{ID: "x", Class: "data", AppID: "A", XML: "<x/>"})),
	}
	logs = append(logs, promotionLogs(tb)...)
	logs = append(logs, commitFrameLogs(tb)...)
	return append(logs, demotionLogs(tb)...)
}

// FuzzDecodePayload feeds bytes straight into the two commit-payload
// decoders, decodeRun and decodeCommit, through decodersAgree: no file, no
// frame and no tier stand between the input and the decoders, so it runs
// at their own rate. The arguments are a payload after its opcode and the
// trace ID and record count a segment index would claim for it. Its seeds
// are FuzzSegmentBlock's runs and the commit payloads of FuzzReplayLog's
// logs, each claimed for the trace and count it holds, or holds first.
func FuzzDecodePayload(f *testing.F) {
	names := newNameTable(testModel(f))
	for _, s := range segmentBlockSeeds(f) {
		if run, err := lenPrefixed(s.payload, s.off); err == nil {
			f.Add(bytes.Clone(run[1:]), "A", s.rows)
		}
	}
	for _, log := range replayLogSeeds(f) {
		for _, p := range commitPayloads(log) {
			app, rows := "", 0
			if es, err := decodeCommit(p, names); err == nil && len(es) > 0 {
				app, rows = es[0].app, len(es)
			}
			f.Add(p, app, rows)
		}
	}
	f.Fuzz(func(t *testing.T, p []byte, app string, rows int) {
		decodersAgree(t, names, p, segTrace{App: app, Rows: rows})
	})
}

// commitPayloads returns the payloads, after their opcode, of the intact
// commit frames heading a log file's bytes.
func commitPayloads(log []byte) [][]byte {
	if !bytes.HasPrefix(log, []byte(logMagic)) {
		return nil
	}
	var out [][]byte
	for rest := log[len(logMagic):]; len(rest) >= 8; {
		n := int(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > len(rest)-8 {
			break
		}
		p := rest[8 : 8+n]
		if opcode(p[0]) == opCommit {
			out = append(out, bytes.Clone(p[1:]))
		}
		rest = rest[8+n:]
	}
	return out
}

// promotionLogs builds seed logs around opPromote frames: a marker naming
// a segment that does not exist, alone, followed by deltas, followed by
// the tombstone that excuses it, behind a row frame (refused), cut short
// inside a valid frame, and torn.
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
		joinFrames(rowFrame(opPutNode, nodeRow(mkReq("PE3", "App01", "REQ001"))), marker, deltaFrame),
		joinFrames(short, deltaFrame),
		joinFrames(marker[:len(marker)-2]),
	}
}

// demotionLogs builds seed logs around opDemote frames, none of which can
// evict (the directory has no segment): a marker behind the trace's records
// (skipped, the trace stays resident), one naming an absent trace (a
// no-op), one behind a tombstone, a marker in a PROVLOG1 log (refused),
// cut short, and an intact frame of an opcode past opDemote (refused).
func demotionLogs(tb testing.TB) [][]byte {
	tb.Helper()
	marker := frameBytes(entry{op: opDemote, app: "App01", gen: 4, seg: 2})
	drop := frameBytes(entry{op: opTraceDrop, app: "App01", gen: 9})
	head := hiringTraceLog(tb)[len(logMagic):]
	legacy := append([]byte("PROVLOG1"), head...)
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
// unknown record opcode, attribute names out of order, a value its kind
// cannot read, a trailing byte.
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
				Type: "t", AppID: "A", Attrs: provenance.Attrs{{Name: "b", Value: provenance.Int(1)}, {Name: "a", Value: provenance.Int(2)}}}}})
		}),
		appendFrame(nil, func(dst []byte) []byte {
			return appendCommit(dst, []entry{{op: opPutNode, app: "A", node: &provenance.Node{ID: "x", Class: provenance.ClassData,
				Type: "t", AppID: "A", Attrs: provenance.AttrsOf(map[string]provenance.Value{"n": provenance.String("not-an-int")})}}})
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

// rowFrame builds the one-record row frame that binaries older than the
// commit frame wrote — the opcode, then the row's ID, CLASS, APPID and XML,
// each length-prefixed — which Open refuses by name.
func rowFrame(op opcode, r Row) []byte {
	return appendFrame(nil, func(b []byte) []byte {
		b = append(b, byte(op))
		for _, c := range [4]string{r.ID, r.Class, r.AppID, r.XML} {
			b = append(binary.LittleEndian.AppendUint32(b, uint32(len(c))), c...)
		}
		return b
	})
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

// intactPrefix scans raw log bytes exactly as recovery does and returns
// the entries of the longest intact frame prefix (markers excluded).
func intactPrefix(data []byte) []entry {
	if len(data) < len(logMagic) || checkMagic("", data[:len(logMagic)]) != nil {
		return nil
	}
	r := bufio.NewReader(bytes.NewReader(data[len(logMagic):]))
	var out []entry
	for {
		p, _, err := readPayload(r)
		if err != nil {
			return out // io.EOF and torn frames both end the prefix
		}
		es, err := decodePayload(p, nil)
		if err != nil {
			return out
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
	// A row frame after intact frames: refused, nothing truncated.
	f.Add(append(bytes.Clone(base), rowFrame(opUpdateNode, nodeRow(mkReq("PE3", "App01", "REQ001-amended")))...))
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
	over = append(over, commitFrame(nodeRec(opPutNode, mkReq("PE9", "App01", "REQ009")))...)
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
		res, err := replayLog(OSFS{}, logPath(dir), nil, func(e entry) error {
			applied = append(applied, e)
			return nil
		}, nil)
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
		res2, err := replayLog(OSFS{}, logPath(dir), nil, func(e entry) error {
			again = append(again, e)
			return nil
		}, nil)
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
