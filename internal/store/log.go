package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/provenance"
)

// The disk log is a sequence of frames following an 8-byte magic header.
// Each frame is:
//
//	uint32 length of payload (little endian)
//	uint32 CRC-32 (IEEE) of payload
//	payload bytes
//
// A payload is a one-byte opcode followed by
//
//   - for opCommit, the records of one commit request (see commitEnc):
//     the records a writer asked to commit together are one frame, so a
//     torn tail drops a whole request, never a prefix of it — unless the
//     request passes commitFrameBytes, which cuts it into frames of whole
//     records;
//   - an 8-byte generation number for the compaction marker;
//   - an 8-byte version or sequence and the length-prefixed trace ID for a
//     version pin or a trace tombstone;
//   - an 8-byte sealed version, an 8-byte segment ID and the length-prefixed
//     trace ID for a promotion or a demotion marker (42 bytes framed for a
//     13-byte trace ID). A promotion marker says the trace's base records
//     are NOT in the log, they stay in the named segment; a demotion marker
//     says the trace left the hot tier for the named segment, its records
//     in the log ahead of the marker notwithstanding.
//
// The magic names what a log may hold. PROVLOG2 logs may carry opDemote
// markers; every file this binary creates — a fresh main log, a side log,
// a rewrite — is one. A PROVLOG1 log (an older binary's) still replays and
// takes appends, but never receives a demotion marker: the first Compact
// rewrites it, and that rewrite is the migration. An older binary refuses
// a PROVLOG2 log with "bad magic" and truncates nothing; without the new
// magic it would read the first marker as a torn tail and cut every
// acknowledged frame after it.
//
// The log stores records, not Table 1: a row (ID, CLASS, APPID, XML) is
// rendered from the record on every read path (nodeRow, edgeRow), and the
// record a commit frame carries is the fixed point of that rendering's
// round trip (canonEntry), so live, replayed and sealed state agree by
// construction. Sealed segments store records in the same codec: a
// trace's run is a commit payload (segment.go).
//
// Legacy row frames — opPutNode, opPutEdge or opUpdateNode followed by the
// four length-prefixed row columns, one record per frame — are what logs
// written before opCommit hold. They still replay, and nothing writes them:
// a log rewrite replaces the main log from the snapshot, so after one the
// main log holds none. Deletion condition for that read branch
// (decodeRowFrame) and for reconcileTiers' torn-promotion arm: no store
// that has not compacted since this format exists any more; a row frame
// must then fail Open by name, never read as a torn tail.
//
// Torn or corrupt tails are detected by the CRC/length checks and truncated
// on recovery, so a crash mid-append loses at most the requests of the
// group commit being written. A frame whose CRC holds but whose opcode this
// binary does not know is not a torn tail: a newer binary wrote it, and Open
// fails naming the file and the offset rather than truncate it.
//
// The log can span multiple files. Steady state is a single main file
// (provenance.log). During a log rewrite, appends are redirected to a side
// file (provenance.log.side.<gen>); the rewritten main log begins with a
// marker frame recording the side generation it folded in, which is how
// recovery decides whether a surviving side file is stale (already folded)
// or carries appends the main log does not have. See compact.go.

const (
	logMagic       = "PROVLOG2"
	legacyLogMagic = "PROVLOG1"
)

// opcode identifies the mutation a log entry carries.
type opcode byte

const (
	// opPutNode, opPutEdge and opUpdateNode name a record's mutation inside
	// an opCommit frame or a sealed trace run, the kind of a format-1
	// segment's row record, and — in logs written before opCommit — a
	// legacy row frame.
	opPutNode opcode = iota + 1
	opPutEdge
	opUpdateNode
	// opCompactMark is a compaction watermark: every side-log generation
	// up to and including its value is folded into the frames that follow.
	opCompactMark
	// opTraceVer pins one trace's version counter. A compaction rewrite
	// collapses update chains, so each rewritten trace's records are
	// followed by this entry and replay rebuilds the trace at exactly the
	// version the writer acknowledged; per-record replays alone would
	// restart the counter from the record count. (Logs written before
	// opPromote also carry it behind a promoted trace's re-logged base rows.)
	opTraceVer
	// opTraceDrop is a trace tombstone: shard handoff commits one after
	// the trace's rows were shipped to their new owner, so replay removes
	// the trace instead of resurrecting it. gen carries the drop's
	// sequence so the tier can tell pre-drop sealed copies (scrubbed)
	// from post-drop re-imports (kept). Tombstones disappear at the next
	// log rewrite, which is built from the already-dropped state.
	opTraceDrop
	// opPromote is a promotion by reference: a write landed on a sealed
	// trace, and instead of copying the trace's records into the log the
	// commit wrote this one frame — trace ID, sealed version (gen), segment
	// ID (seg) — ahead of its delta. Replay restores the trace from that
	// segment at that version, exactly as the live path did, before the
	// delta applies; the segment stays the trace's durable base until a
	// log rewrite puts the resident trace's records into a new main log.
	opPromote
	// opCommit carries the records of one commit request (commitEnc).
	opCommit
	// opDemote is a demotion marker, the dual of opPromote: compaction sealed
	// the trace at version gen into segment seg, and the marker — committed
	// through the group commit once the segment is durable — moves it out of
	// the hot tier. Apply evicts the trace only if it is still resident at
	// exactly gen: a write that landed between the seal and the marker keeps
	// it hot. Only PROVLOG2 logs carry it.
	opDemote
)

// namesTrace reports whether the opcode's payload is a trace ID with a
// number or two, not records.
func (op opcode) namesTrace() bool {
	return op == opTraceVer || op == opTraceDrop || op.namesSegment()
}

// namesSegment reports whether a trace entry carries a segment ID too.
func (op opcode) namesSegment() bool { return op == opPromote || op == opDemote }

var (
	errTornFrame = errors.New("store: torn or corrupt log frame")
	// errUnknownOp is a frame's opcode this binary does not know.
	errUnknownOp = errors.New("store: unknown log opcode")
)

// entry is one log record: a node or edge mutation (node / edge set, app
// its trace), or a trace entry (app the trace it names). gen is meaningful
// only for the compaction marker and trace entries, seg only for promotion
// and demotion markers. err is set only on a legacy row frame whose XML
// does not decode: the frame is intact, so replay skips the entry — its
// writer rejected it too — instead of truncating the log there.
type entry struct {
	op   opcode
	app  string
	gen  uint64
	seg  uint64
	node *provenance.Node
	edge *provenance.Edge
	err  error
}

// appendFrame appends one CRC frame to dst; enc appends its payload.
func appendFrame(dst []byte, enc func([]byte) []byte) []byte {
	start := len(dst)
	dst = enc(append(dst, make([]byte, 8)...))
	p := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(p))
	return dst
}

// appendEntryFrame appends the frame of a compaction marker or trace entry.
func appendEntryFrame(dst []byte, e entry) []byte {
	return appendFrame(dst, func(b []byte) []byte { return appendEntry(b, e) })
}

// appendEntry appends the payload of a compaction marker or trace entry.
func appendEntry(dst []byte, e entry) []byte {
	dst = append(dst, byte(e.op))
	dst = binary.LittleEndian.AppendUint64(dst, e.gen)
	if e.op == opCompactMark {
		return dst
	}
	// version/seq (gen) + segment ID (markers only) + length-prefixed trace
	// ID.
	if e.op.namesSegment() {
		dst = binary.LittleEndian.AppendUint64(dst, e.seg)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.app)))
	return append(dst, e.app...)
}

// decodeFrame decodes one frame's payload into its entries: the records of
// a commit frame, or the single entry of any other frame.
func decodeFrame(payload []byte) ([]entry, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("store: empty log payload")
	}
	if opcode(payload[0]) == opCommit {
		return decodeCommit(payload[1:])
	}
	e, err := decodeEntry(payload)
	if err != nil {
		return nil, err
	}
	return []entry{e}, nil
}

// decodeEntry decodes the payload of a compaction marker, a trace entry
// or a legacy row frame.
func decodeEntry(payload []byte) (entry, error) {
	e := entry{op: opcode(payload[0])}
	switch e.op {
	case opPutNode, opPutEdge, opUpdateNode:
		return decodeRowFrame(payload)
	case opCompactMark:
		if len(payload) != 9 {
			return entry{}, fmt.Errorf("store: compact marker payload is %d bytes", len(payload))
		}
		e.gen = binary.LittleEndian.Uint64(payload[1:])
		return e, nil
	}
	if !e.op.namesTrace() {
		return entry{}, fmt.Errorf("%w %d", errUnknownOp, e.op)
	}
	p, fixed := payload[1:], 12 // gen + the trace ID's length prefix
	if e.op.namesSegment() {
		fixed = 20
	}
	if len(p) < fixed {
		return entry{}, fmt.Errorf("store: trace-entry payload is %d bytes", len(payload))
	}
	e.gen = binary.LittleEndian.Uint64(p)
	if e.op.namesSegment() {
		e.seg = binary.LittleEndian.Uint64(p[8:])
	}
	if n := binary.LittleEndian.Uint32(p[fixed-4:]); uint32(len(p)-fixed) != n {
		return entry{}, fmt.Errorf("store: trace-entry payload length mismatch")
	}
	e.app = string(p[fixed:])
	return e, nil
}

// A commit payload (after its opcode) is a string table, then the records:
//
//	uvarint n, n × (uvarint len, bytes)     trace IDs, node types, relation
//	                                        types, attribute names
//	uvarint m, m × record:
//	  byte op                               opPutNode | opPutEdge | opUpdateNode
//	  uvarint trace                         string-table index
//	  id                                    suffix-coded against the trace ID
//	  node: byte class, uvarint type        edge: uvarint type, id source, id target
//	  varint seconds, uvarint nanoseconds   the timestamp, Unix, UTC
//	  uvarint k, k × (uvarint name, byte kind, uvarint len, text)
//
// where an id is the length of its common prefix with the trace ID and the
// length-prefixed rest ("hiring-000007-req" in trace "hiring-000007" is 13
// and "-req"), and a value's text is what Value.Text renders and ParseValue
// reads back. Attributes go in name order, so equal records encode to equal
// bytes. The timestamp is seconds and nanoseconds, not one int64 of
// nanoseconds, because Table 1 admits every year from 0 to 9999 and the
// zero time, which int64 nanoseconds cannot carry.

const (
	// minCommitRecord is the fewest bytes a record can take in a commit
	// frame.
	minCommitRecord = 9
	// maxFrame bounds a frame's payload: readFrame reads a longer one as
	// torn, so no writer may produce one.
	maxFrame = 64 << 20
	// commitFrameBytes is where writers cut a run of records into commit
	// frames: a frame closes once its records and string table reach it.
	// A commit request smaller than that is one frame, so a torn tail drops
	// all of it or none; a larger one spans frames of whole records.
	commitFrameBytes = 1 << 20
)

// commitEnc cuts a stream of records into commit frames. Records are
// encoded as they come, naming strings by their index in a table built as
// they appear; a frame joins the table and the records behind the opcode.
type commitEnc struct {
	idx    map[string]uint64
	tab    []string
	tabLen int // bytes of the table's strings
	recs   []byte
	n      int // records in recs
	names  []string
}

// add encodes a record into the pending frame and, once the frame reaches
// commitFrameBytes, appends it to dst (see flush).
func (c *commitEnc) add(dst []byte, e entry) ([]byte, error) {
	c.record(e)
	if c.tabLen+len(c.recs) < commitFrameBytes {
		return dst, nil
	}
	return c.flush(dst)
}

// flush appends the pending records' frame to dst, if there are any, and
// starts the next one. A frame longer than maxFrame is dropped with an
// error instead: only a record of about maxFrame-commitFrameBytes bytes or
// more makes one.
func (c *commitEnc) flush(dst []byte) ([]byte, error) {
	if c.n == 0 {
		return dst, nil
	}
	start := len(dst)
	dst = appendFrame(dst, c.payload)
	c.reset()
	if len(dst)-start-8 > maxFrame {
		return dst[:start], errors.New("store: record too large for a log frame")
	}
	return dst, nil
}

// reset drops the pending records.
func (c *commitEnc) reset() {
	clear(c.idx)
	clear(c.tab)
	c.tab, c.tabLen, c.recs, c.n = c.tab[:0], 0, c.recs[:0], 0
}

// payload appends the pending records' commit payload.
func (c *commitEnc) payload(dst []byte) []byte {
	dst = append(dst, byte(opCommit))
	dst = binary.AppendUvarint(dst, uint64(len(c.tab)))
	for _, s := range c.tab {
		dst = appendStr(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(c.n))
	return append(dst, c.recs...)
}

// record encodes one record entry.
func (c *commitEnc) record(e entry) {
	c.n++
	c.recs = append(c.recs, byte(e.op))
	if n := e.node; n != nil {
		c.ref(n.AppID)
		c.id(n.AppID, n.ID)
		c.recs = append(c.recs, byte(n.Class))
		c.ref(n.Type)
		c.fields(n.Timestamp, n.Attrs)
		return
	}
	ed := e.edge
	c.ref(ed.AppID)
	c.id(ed.AppID, ed.ID)
	c.ref(ed.Type)
	c.id(ed.AppID, ed.Source)
	c.id(ed.AppID, ed.Target)
	c.fields(ed.Timestamp, ed.Attrs)
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// ref appends s's string-table index, adding it to the table first.
func (c *commitEnc) ref(s string) {
	i, ok := c.idx[s]
	if !ok {
		if c.idx == nil {
			c.idx = map[string]uint64{}
		}
		i = uint64(len(c.tab))
		c.idx[s] = i
		c.tab = append(c.tab, s)
		c.tabLen += len(s)
	}
	c.recs = binary.AppendUvarint(c.recs, i)
}

// id appends a record ID coded against its trace ID.
func (c *commitEnc) id(app, id string) {
	p := sharedPrefix(app, id)
	c.recs = appendStr(binary.AppendUvarint(c.recs, uint64(p)), id[p:])
}

// sharedPrefix is the length of the common prefix of a and b.
func sharedPrefix(a, b string) int {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	return p
}

// fields appends a record's timestamp and its present attributes.
func (c *commitEnc) fields(ts time.Time, attrs map[string]provenance.Value) {
	c.recs = binary.AppendVarint(c.recs, ts.Unix())
	c.recs = binary.AppendUvarint(c.recs, uint64(ts.Nanosecond()))
	c.names = c.names[:0]
	for name, v := range attrs {
		if !v.IsZero() {
			c.names = append(c.names, name)
		}
	}
	sort.Strings(c.names)
	c.recs = binary.AppendUvarint(c.recs, uint64(len(c.names)))
	for _, name := range c.names {
		v := attrs[name]
		c.ref(name)
		c.recs = appendStr(append(c.recs, byte(v.Kind())), v.Text())
	}
}

// decodeCommit decodes a commit payload (after its opcode). Every string
// it returns is a copy, so decoded records never pin the frame buffer. A
// payload that does not parse exactly — a length or index out of range, an
// unknown opcode, a value its kind cannot read, a trailing byte — is an
// error, which readFrame reports as a torn frame.
func decodeCommit(p []byte) ([]entry, error) {
	c := frameCursor{p: p}
	n := c.uvarint()
	if n > uint64(len(c.p)) {
		return nil, errors.New("store: commit frame string table overruns the frame")
	}
	var tab []string
	for i := uint64(0); i < n && !c.bad; i++ {
		tab = append(tab, c.str())
	}
	m := c.uvarint()
	if m == 0 || m > uint64(len(c.p))/minCommitRecord {
		return nil, errors.New("store: commit frame record count out of range")
	}
	recs := make([]entry, 0, m)
	for i := uint64(0); i < m && !c.bad; i++ {
		recs = append(recs, c.record(tab))
	}
	if c.bad || len(c.p) != 0 {
		return nil, errors.New("store: malformed commit frame")
	}
	return recs, nil
}

// frameCursor reads a commit payload. The first field that does not parse
// sets bad, which sticks; every later read is then harmless.
type frameCursor struct {
	p   []byte
	bad bool
}

func (c *frameCursor) fail() {
	c.bad, c.p = true, nil
}

func (c *frameCursor) byte() byte {
	if len(c.p) == 0 {
		c.fail()
		return 0
	}
	b := c.p[0]
	c.p = c.p[1:]
	return b
}

func (c *frameCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *frameCursor) str() string {
	n := c.uvarint()
	if n > uint64(len(c.p)) {
		c.fail()
		return ""
	}
	s := string(c.p[:n])
	c.p = c.p[n:]
	return s
}

// ref reads a string-table index.
func (c *frameCursor) ref(tab []string) string {
	i := c.uvarint()
	if i >= uint64(len(tab)) {
		c.fail()
		return ""
	}
	return tab[i]
}

// id reads a record ID coded against trace ID app.
func (c *frameCursor) id(app string) string {
	p := c.uvarint()
	rest := c.str()
	if p > uint64(len(app)) {
		c.fail()
		return ""
	}
	return app[:p] + rest
}

func (c *frameCursor) record(tab []string) entry {
	e := entry{op: opcode(c.byte())}
	e.app = c.ref(tab)
	id := c.id(e.app)
	switch e.op {
	case opPutNode, opUpdateNode:
		class := provenance.Class(c.byte())
		typ := c.ref(tab)
		ts, attrs := c.fields(tab)
		e.node = &provenance.Node{ID: id, Class: class, Type: typ, AppID: e.app, Timestamp: ts, Attrs: attrs}
	case opPutEdge:
		typ := c.ref(tab)
		src, dst := c.id(e.app), c.id(e.app)
		ts, attrs := c.fields(tab)
		e.edge = &provenance.Edge{ID: id, Type: typ, AppID: e.app, Source: src, Target: dst, Timestamp: ts, Attrs: attrs}
	default:
		c.fail()
	}
	return e
}

// fields reads a record's timestamp and attributes.
func (c *frameCursor) fields(tab []string) (time.Time, map[string]provenance.Value) {
	sec, n := binary.Varint(c.p)
	if n <= 0 {
		c.fail()
		return time.Time{}, nil
	}
	c.p = c.p[n:]
	nsec := c.uvarint()
	if nsec >= 1e9 {
		c.fail()
	}
	ts := time.Unix(sec, int64(nsec)).UTC()
	k := c.uvarint()
	if k > uint64(len(c.p)) {
		c.fail()
	}
	var attrs map[string]provenance.Value
	for i := uint64(0); i < k && !c.bad; i++ {
		name := c.ref(tab)
		kind := provenance.Kind(c.byte())
		v, err := provenance.ParseValue(kind, c.str())
		if err != nil {
			c.fail()
			break
		}
		if attrs == nil {
			attrs = make(map[string]provenance.Value, k)
		}
		attrs[name] = v
	}
	return ts, attrs
}

// decodeRowFrame reads a legacy row frame (see the format comment for
// when this branch can go). The row's XML is decoded here; one that does
// not decode leaves its error on the entry for apply to report, because
// the frame itself is intact.
func decodeRowFrame(p []byte) (entry, error) {
	c, err := rowCols(p, 0, len(p))
	if err != nil {
		return entry{}, fmt.Errorf("store: log payload: %v", err)
	}
	col := func(i int) string { return string(p[c[i][0]:c[i][1]]) }
	row := Row{ID: col(0), Class: col(1), AppID: col(2), XML: col(3)}
	e := entry{op: opcode(p[0]), app: row.AppID}
	e.node, e.edge, e.err = DecodeRow(row)
	return e, nil
}

// appendRowRecord appends a row record — the opcode, then ID, CLASS, APPID
// and XML, each length-prefixed — the layout format-1 segments store and
// legacy row frames carry. Nothing but tests writes it (see segment.go).
func appendRowRecord(dst []byte, op opcode, r Row) []byte {
	dst = append(dst, byte(op))
	for _, c := range [4]string{r.ID, r.Class, r.AppID, r.XML} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// rowCols locates the columns of the row record p[start:end] as offsets
// into p. It is the one parser of that layout: legacy log frames
// (decodeRowFrame) and format-1 blocks (recAt) both read it through here.
func rowCols(p []byte, start, end int) (col [4][2]int, err error) {
	if op := opcode(p[start]); op != opPutNode && op != opPutEdge && op != opUpdateNode {
		return col, fmt.Errorf("opcode %d is not a row record", op)
	}
	at := start + 1
	for i := range col {
		if end-at < 4 {
			return col, errors.New("truncated column header")
		}
		n := binary.LittleEndian.Uint32(p[at:])
		at += 4
		if uint64(n) > uint64(end-at) {
			return col, errors.New("truncated column")
		}
		col[i] = [2]int{at, at + int(n)}
		at += int(n)
	}
	if at != end {
		return col, fmt.Errorf("%d trailing bytes", end-at)
	}
	return col, nil
}

// logWriter appends frames to one log file. It is not safe for concurrent
// use; the store serializes access under logMu.
type logWriter struct {
	fs   FS
	path string
	f    File
	buf  *bufio.Writer
	// sync records whether the store demands fsync durability. The group
	// committer decides when to call syncFile; close consults it too.
	sync bool
	// size is the file's length once every buffered byte is written.
	size int64
}

func createOrOpenLog(fsys FS, path string, sync bool) (*logWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		if _, err := f.Write([]byte(logMagic)); err != nil {
			f.Close()
			return nil, err
		}
		size = int64(len(logMagic))
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &logWriter{fs: fsys, path: path, f: f, buf: bufio.NewWriter(f), sync: sync, size: size}, nil
}

// write buffers encoded frames. Nothing reaches the file (let alone the
// disk) until flush; the group committer amortizes flush+fsync over a
// batch of requests.
func (w *logWriter) write(frames []byte) error {
	n, err := w.buf.Write(frames)
	w.size += int64(n)
	return err
}

func (w *logWriter) flush() error { return w.buf.Flush() }

func (w *logWriter) syncFile() error { return w.f.Sync() }

// close flushes, fsyncs (only when the store demanded sync durability)
// and closes the file. Error reporting is deterministic: every step runs
// regardless of earlier failures except that a failed flush skips the
// fsync (the file is known incomplete, syncing it certifies nothing), and
// the first error in flush -> sync -> close order is returned.
func (w *logWriter) close() error {
	flushErr := w.flush()
	var syncErr error
	if w.sync && flushErr == nil {
		syncErr = w.syncFile()
	}
	closeErr := w.f.Close()
	switch {
	case flushErr != nil:
		return flushErr
	case syncErr != nil:
		return syncErr
	default:
		return closeErr
	}
}

// replayResult summarizes one log file's replay.
type replayResult struct {
	// dropped is the number of torn-tail bytes truncated away.
	dropped int64
	// folded is the highest compaction-marker generation seen: side logs
	// with generations at or below it are already folded into this file.
	folded uint64
	// applied counts entries handed to apply successfully.
	applied int
	// skipped counts entries whose apply failed. The writer rejected the
	// same entries when they were first committed (apply is deterministic
	// in the preceding state), so skipping reproduces its state exactly.
	skipped int
	// size is the file's length after replay (and any truncation).
	size int64
	// legacy reports a PROVLOG1 header: the file may not take a demotion
	// marker until a rewrite replaces it.
	legacy bool
}

// replayLog reads every intact entry from the log file at path. When the
// tail is torn or corrupt it truncates the file to the last intact frame
// and reports how many bytes were dropped. A missing file replays
// nothing. Entries that fail to apply are skipped, not fatal: the writer
// that produced the log also failed to apply them (append happens before
// apply), so a poisoned entry must not brick recovery.
func replayLog(fsys FS, path string, apply func(entry) error) (replayResult, error) {
	var res replayResult
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return res, nil
	}
	if err != nil {
		return res, err
	}
	defer f.Close()

	r := bufio.NewReader(f)
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		if err == io.EOF {
			return res, nil // empty file: nothing to replay
		}
		if err == io.ErrUnexpectedEOF {
			// Torn magic: the crash hit before the header completed, so no
			// frame can follow. Reset the file so reopening recreates it.
			st, serr := f.Stat()
			if serr != nil {
				return res, serr
			}
			res.dropped = st.Size()
			f.Close()
			if terr := fsys.Truncate(path, 0); terr != nil {
				return res, fmt.Errorf("store: truncating torn log header: %v", terr)
			}
			return res, nil
		}
		return res, fmt.Errorf("store: reading log header: %v", err)
	}
	if err := checkMagic(path, magic); err != nil {
		return res, err
	}
	res.legacy = string(magic) == legacyLogMagic

	good := int64(len(logMagic))
	for {
		es, frameLen, rerr := readFrame(r)
		if rerr == io.EOF {
			break
		}
		if errors.Is(rerr, errUnknownOp) {
			return res, fmt.Errorf("store: %s: the frame at offset %d is intact but its opcode is not one this binary knows (%v): refusing to truncate a log a newer binary wrote", path, good, rerr)
		}
		if rerr != nil {
			// Torn tail: truncate to the last intact frame.
			st, serr := f.Stat()
			if serr != nil {
				return res, serr
			}
			res.dropped = st.Size() - good
			f.Close()
			if terr := fsys.Truncate(path, good); terr != nil {
				return res, fmt.Errorf("store: truncating torn log: %v", terr)
			}
			return res, nil
		}
		for _, e := range es {
			if e.op == opCompactMark {
				if e.gen > res.folded {
					res.folded = e.gen
				}
			} else if aerr := apply(e); aerr != nil {
				res.skipped++
			} else {
				res.applied++
			}
		}
		good += frameLen
	}
	res.size = good
	return res, nil
}

// checkMagic accepts the headers this binary reads.
func checkMagic(path string, magic []byte) error {
	if m := string(magic); m != logMagic && m != legacyLogMagic {
		return fmt.Errorf("store: %s is not a provenance log (bad magic)", path)
	}
	return nil
}

// readFrame reads one frame and returns its entries. io.EOF means a clean
// end; an error wrapping errUnknownOp means an intact frame of an opcode
// this binary does not know; any other error means a torn or corrupt frame.
func readFrame(r *bufio.Reader) ([]entry, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFrame {
		return nil, 0, errTornFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, errTornFrame
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, errTornFrame
	}
	es, err := decodeFrame(payload)
	if errors.Is(err, errUnknownOp) {
		return nil, 0, err
	}
	if err != nil {
		return nil, 0, errTornFrame
	}
	return es, int64(8 + n), nil
}

// logPath returns the main log file path inside dir.
func logPath(dir string) string { return filepath.Join(dir, "provenance.log") }

// tmpLogPath is the scratch file a compaction snapshot is written to
// before the atomic rename; a leftover one is garbage from a crashed
// compaction and is removed at Open.
func tmpLogPath(dir string) string { return logPath(dir) + ".tmp" }

// sideLogPath names the side log of one compaction generation.
func sideLogPath(dir string, gen uint64) string {
	return fmt.Sprintf("%s.side.%d", logPath(dir), gen)
}

// sideLogGens lists the side-log generations present in dir, ascending.
func sideLogGens(fsys FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	prefix := filepath.Base(logPath(dir)) + ".side."
	var gens []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		gen, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
		if err != nil {
			continue // not ours
		}
		gens = append(gens, gen)
	}
	for i := 1; i < len(gens); i++ {
		for j := i; j > 0 && gens[j] < gens[j-1]; j-- {
			gens[j], gens[j-1] = gens[j-1], gens[j]
		}
	}
	return gens, nil
}

// copyFrames streams every byte after the magic header of the log file at
// src into w's buffer. Used by compaction to fold a side log into the
// snapshot; the frames are already CRC-framed so they are copied verbatim.
func copyFrames(fsys FS, src string, w *logWriter) error {
	f, err := fsys.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr := make([]byte, len(logMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		if err == io.EOF {
			return nil // empty side log: nothing to fold
		}
		return err
	}
	if err := checkMagic(src, hdr); err != nil {
		return err
	}
	n, err := io.Copy(w.buf, f)
	w.size += n
	return err
}
