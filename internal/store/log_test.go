package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/provenance"
)

// fakeFile is a File stub with scriptable failures, for pinning the
// logWriter.close contract without a real filesystem.
type fakeFile struct {
	writeErr, syncErr, closeErr error
	writes, syncs, closes       int
}

func (f *fakeFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return len(p), nil
}
func (f *fakeFile) Read([]byte) (int, error)       { return 0, errors.New("not readable") }
func (f *fakeFile) Seek(int64, int) (int64, error) { return 0, nil }
func (f *fakeFile) Sync() error                    { f.syncs++; return f.syncErr }
func (f *fakeFile) Close() error                   { f.closes++; return f.closeErr }
func (f *fakeFile) Stat() (os.FileInfo, error)     { return nil, errors.New("no stat") }

func newFakeWriter(f *fakeFile, sync bool) *logWriter {
	return &logWriter{f: f, buf: bufio.NewWriter(f), sync: sync}
}

// TestLogWriterCloseContract pins close's deterministic error ordering:
// flush -> sync -> close, first failure wins, every step still runs except
// that a failed flush skips the pointless fsync, and a store opened
// without Sync never fsyncs at all.
func TestLogWriterCloseContract(t *testing.T) {
	someFrame := commitFrame(nodeRec(opPutNode, mkReq("x", "A", "R1")))

	t.Run("nosync-close-never-syncs", func(t *testing.T) {
		f := &fakeFile{}
		w := newFakeWriter(f, false)
		if err := w.write(someFrame); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if f.syncs != 0 || f.closes != 1 {
			t.Fatalf("syncs=%d closes=%d, want 0/1", f.syncs, f.closes)
		}
	})
	t.Run("sync-close-syncs-once", func(t *testing.T) {
		f := &fakeFile{}
		w := newFakeWriter(f, true)
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if f.syncs != 1 || f.closes != 1 {
			t.Fatalf("syncs=%d closes=%d, want 1/1", f.syncs, f.closes)
		}
	})
	t.Run("flush-error-wins-and-skips-sync", func(t *testing.T) {
		wantErr := errors.New("disk full")
		f := &fakeFile{writeErr: wantErr, syncErr: errors.New("later"), closeErr: errors.New("last")}
		w := newFakeWriter(f, true)
		if err := w.write(someFrame); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != wantErr {
			t.Fatalf("close = %v, want flush error", err)
		}
		if f.syncs != 0 {
			t.Fatal("fsync ran after a failed flush")
		}
		if f.closes != 1 {
			t.Fatal("file was not closed after flush error")
		}
	})
	t.Run("sync-error-beats-close-error", func(t *testing.T) {
		wantErr := errors.New("fsync io error")
		f := &fakeFile{syncErr: wantErr, closeErr: errors.New("close error")}
		w := newFakeWriter(f, true)
		if err := w.close(); err != wantErr {
			t.Fatalf("close = %v, want sync error", err)
		}
		if f.closes != 1 {
			t.Fatal("file was not closed after sync error")
		}
	})
	t.Run("close-error-reported-last", func(t *testing.T) {
		wantErr := errors.New("close failed")
		f := &fakeFile{closeErr: wantErr}
		w := newFakeWriter(f, true)
		if err := w.close(); err != wantErr {
			t.Fatalf("close = %v, want close error", err)
		}
	})
}

// sameNode is strict equality of two node records (sameRecordValue's
// rules for attributes, == for the timestamp: location and monotonic
// reading included).
func sameNode(a, b *provenance.Node) bool {
	return a.ID == b.ID && a.Class == b.Class && a.Type == b.Type && a.AppID == b.AppID &&
		a.Timestamp == b.Timestamp && sameAttrs(a.Attrs, b.Attrs)
}

func sameEdge(a, b *provenance.Edge) bool {
	return a.ID == b.ID && a.Type == b.Type && a.AppID == b.AppID && a.Source == b.Source &&
		a.Target == b.Target && a.Timestamp == b.Timestamp && sameAttrs(a.Attrs, b.Attrs)
}

// oddTime is a timestamp from the corners of what Table 1 can and cannot
// carry: the zero time, years RFC 3339 cannot write, years int64
// nanoseconds cannot hold, zones, sub-second parts, monotonic readings.
func oddTime(rng *rand.Rand) time.Time {
	switch rng.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date([]int{-1, 10000, 12345}[rng.Intn(3)], 3, 1, 0, 0, 0, 0, time.UTC)
	case 2:
		return time.Date([]int{0, 1, 1200, 1677, 2263, 9999}[rng.Intn(6)], 12, 31, 23, 59, 59, rng.Intn(1e9), time.UTC)
	case 3:
		return time.Now()
	default:
		return randTime(rng)
	}
}

// TestCommitFrameCodecProperty: for generated records — hostile strings,
// names encoding/xml reads differently or not at all, years outside
// 0–9999 and outside int64 nanoseconds, absent attributes — the record a
// commit carries (canonEntry) is rejected exactly when the
// Table-1 round trip rejects the input, is the fixed point of that trip
// (c == DecodeRow(nodeRow(c))) and the record the trip makes of the
// input, and survives the commit frame unchanged (decode(encode(c)) ==
// c) with no string of it pointing into the frame.
func TestCommitFrameCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	o := &rowOracle{t: t, rng: rng}
	names := []string{"v", "reqID", "名前", "x y", "1a", "a:b", "", "ps:x", "é"}
	types := []string{"doc", "種類", "t-1.x", "a b", "relation", "<x>"}
	var recs []entry
	var declined, rejected, farYears int
	for i := 0; i < 4000; i++ {
		app := fmt.Sprintf("T%d-%s", rng.Intn(5), randText(rng, hostileID, 1))
		n := o.node(app)
		n.Type = types[rng.Intn(len(types))]
		n.Timestamp = oddTime(rng)
		for k := rng.Intn(3); k > 0; k-- {
			v := randValue(rng)
			if rng.Intn(4) == 0 {
				v = provenance.Time(oddTime(rng))
			}
			n.SetAttr(names[rng.Intn(len(names))], v)
		}
		if rng.Intn(6) == 0 {
			n.ID += "\ufffd"
		}
		var rec entry
		if rng.Intn(3) == 0 {
			e := &provenance.Edge{ID: o.id("e"), Type: randText(rng, hostile, 2) + "t", AppID: app,
				Source: n.ID, Target: o.id("n") + randText(rng, hostile, 1), Timestamp: n.Timestamp, Attrs: n.Attrs}
			ce, err := canonEntry(entry{op: opPutEdge, app: app, edge: e})
			_, want, werr := DecodeRow(edgeRow(e))
			if (err != nil) != (werr != nil) {
				t.Fatalf("canonEntry err %v, round trip err %v", err, werr)
			}
			if err != nil {
				rejected++
				continue
			}
			c := ce.edge
			if liveEdge(e) == nil {
				declined++
			}
			if _, fixed, err := DecodeRow(edgeRow(c)); err != nil || !sameEdge(c, fixed) || !sameEdge(c, want) {
				t.Fatalf("edge %q is not the round trip's fixed point (err %v):\n c     %#v\n fixed %#v\n want  %#v", e.ID, err, c, fixed, want)
			}
			rec = entry{op: opPutEdge, app: c.AppID, edge: c}
		} else {
			cn, err := canonEntry(entry{op: opPutNode, app: app, node: n})
			want, _, werr := DecodeRow(nodeRow(n))
			if (err != nil) != (werr != nil) {
				t.Fatalf("canonEntry err %v, round trip err %v", err, werr)
			}
			if err != nil {
				rejected++
				continue
			}
			c := cn.node
			if liveNode(n) == nil {
				declined++
			}
			if y := c.Timestamp.Year(); y < 1678 || y > 2261 {
				farYears++
			}
			if fixed, _, err := DecodeRow(nodeRow(c)); err != nil || !sameNode(c, fixed) || !sameNode(c, want) {
				t.Fatalf("node %q is not the round trip's fixed point (err %v):\n c     %#v\n fixed %#v\n want  %#v", n.ID, err, c, fixed, want)
			}
			rec = entry{op: []opcode{opPutNode, opUpdateNode}[rng.Intn(2)], app: c.AppID, node: c}
		}
		recs = append(recs, rec)
	}
	if declined < 300 || rejected < 100 || farYears < 100 {
		t.Fatalf("generator covers too little: %d declined by the live path, %d rejected, %d timestamps beyond int64 ns", declined, rejected, farYears)
	}

	// Frames of 1 to 64 records, several traces each.
	for len(recs) > 0 {
		k := 1 + rng.Intn(64)
		if k > len(recs) {
			k = len(recs)
		}
		batch := recs[:k]
		recs = recs[k:]
		payload := appendCommit(nil, batch)
		got, err := decodeFrame(payload)
		if err != nil || len(got) != len(batch) {
			t.Fatalf("decode of a %d-record frame: %d records, %v", len(batch), len(got), err)
		}
		base := uintptr(unsafe.Pointer(&payload[0]))
		inFrame := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= base && p < base+uintptr(len(payload))
		}
		for i, g := range got {
			w := batch[i]
			if g.op != w.op || g.app != w.app {
				t.Fatalf("record %d: op %d app %q, want op %d app %q", i, g.op, g.app, w.op, w.app)
			}
			strs := []string{g.app}
			var attrs provenance.Attrs
			if w.node != nil {
				if g.node == nil || !sameNode(g.node, w.node) {
					t.Fatalf("node %d:\n got  %#v\n want %#v", i, g.node, w.node)
				}
				strs, attrs = append(strs, g.node.ID, g.node.Type), g.node.Attrs
			} else {
				if g.edge == nil || !sameEdge(g.edge, w.edge) {
					t.Fatalf("edge %d:\n got  %#v\n want %#v", i, g.edge, w.edge)
				}
				strs, attrs = append(strs, g.edge.ID, g.edge.Type, g.edge.Source, g.edge.Target), g.edge.Attrs
			}
			for _, a := range attrs {
				strs = append(strs, a.Name, a.Value.Str())
			}
			for _, s := range strs {
				if inFrame(s) {
					t.Fatalf("record %d: %q points into the frame buffer", i, s)
				}
			}
		}
		if again := appendCommit(nil, got); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding a decoded frame changed its bytes")
		}
	}
}

// TestCommitFrameRejectsBadStructure: a commit payload cut anywhere, or
// carrying a trailing byte, does not decode — so a frame whose CRC holds
// over a payload that does not parse reads as torn, never as a shorter
// request — and replay stops at such a frame.
func TestCommitFrameRejectsBadStructure(t *testing.T) {
	payload := appendCommit(nil, []entry{
		nodeRec(opPutNode, mkReq("PE9", "App01", "REQ009")),
		nodeRec(opPutNode, mkPerson("PE8", "App01", "Ann")),
		edgeRec(mkSubmitter("PE7", "App01", "PE8", "PE9")),
	})
	for cut := 1; cut < len(payload); cut++ {
		if es, err := decodeFrame(payload[:cut]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded as %d records", cut, len(payload), len(es))
		}
	}
	if _, err := decodeFrame(append(bytes.Clone(payload), 0)); err == nil {
		t.Fatal("payload with a trailing byte decoded")
	}
	for i, log := range commitFrameLogs(t)[1:] {
		dir := t.TempDir()
		if err := writeFileHelper(dir, log); err != nil {
			t.Fatal(err)
		}
		var applied []entry
		res, err := replayLog(OSFS{}, logPath(dir), func(e entry) error {
			applied = append(applied, e)
			return nil
		})
		if err != nil || res.dropped == 0 || len(applied) != 4 {
			t.Fatalf("bad frame %d: replay applied %d entries, dropped %d bytes, err %v; want the 4 ahead of it and a truncation", i, len(applied), res.dropped, err)
		}
	}
}

// TestLargeRecordsCutIntoFrames: a request, and a compaction rewrite, whose
// records pass commitFrameBytes are cut into frames of whole records, so
// no frame nears maxFrame — the bound past which readFrame reads a frame
// as torn and replay truncates the log — and every record is back after a
// reopen, both before and after the compaction.
func TestLargeRecordsCutIntoFrames(t *testing.T) {
	dir := t.TempDir()
	s := tierStore(t, dir, nil)
	big := strings.Repeat("x", 600<<10)
	var b Batch
	for i := 0; i < 8; i++ {
		b.Nodes = append(b.Nodes, mkReq(fmt.Sprintf("big-%d", i), fmt.Sprintf("T%d", i%3), big+strconv.Itoa(i)))
	}
	for _, err := range s.Commit(b).Nodes {
		if err != nil {
			t.Fatal(err)
		}
	}
	reopenAndCheck := func(stage string) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for p := raw[len(logMagic):]; len(p) > 0; frames++ {
			n := int(binary.LittleEndian.Uint32(p))
			if n > commitFrameBytes+len(big)+1024 {
				t.Fatalf("%s: a %d-byte frame holds more than one record past commitFrameBytes", stage, n)
			}
			p = p[8+n:]
		}
		if frames < 4 {
			t.Fatalf("%s: %d frames for 8 records of %d bytes: the run was not cut", stage, frames, len(big))
		}
		s = tierStore(t, dir, nil)
		for i := 0; i < 8; i++ {
			n := s.Node(fmt.Sprintf("big-%d", i))
			if n == nil || n.Attr("reqID").Str() != big+strconv.Itoa(i) {
				t.Fatalf("%s: big-%d lost across the reopen", stage, i)
			}
		}
	}
	reopenAndCheck("live request")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck("compaction rewrite")
}

// TestCommitFrameRejectsDisorderedNames: a record's attribute names are
// written in their sorted order, so a frame that names them out of order,
// or names one twice, is malformed.
func TestCommitFrameRejectsDisorderedNames(t *testing.T) {
	payload := func(attrs provenance.Attrs) []byte {
		n := mkReq("PE1", "App01", "REQ1")
		n.Attrs = attrs // raw, past Validate: the encoder writes them as given
		return appendCommit(nil, []entry{{op: opPutNode, app: n.AppID, node: n}})[1:]
	}
	x, y := provenance.String("x"), provenance.Int(7)
	es, err := decodeCommit(payload(provenance.Attrs{{Name: "a", Value: x}, {Name: "b", Value: y}}))
	if err != nil || len(es) != 1 || es[0].node.Attr("a") != x || es[0].node.Attr("b") != y {
		t.Fatalf("sorted names: %v, %v", es, err)
	}
	for what, attrs := range map[string]provenance.Attrs{
		"unsorted":  {{Name: "b", Value: y}, {Name: "a", Value: x}},
		"duplicate": {{Name: "a", Value: x}, {Name: "a", Value: y}},
	} {
		if es, err := decodeCommit(payload(attrs)); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s names: decoded %v, err %v", what, es, err)
		}
	}
}
