package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

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
// Every log file — main, side, rewrite — starts with the magic PROVLOG2,
// which is the only one this binary reads. A file with another header,
// the older PROVLOG1 included, fails Open with "bad magic", naming the
// file. An older binary refuses a PROVLOG2 log the same way.
//
// The log stores records, not Table 1: a row (ID, CLASS, APPID, XML) is
// rendered from the record on every read path (nodeRow, edgeRow), and the
// record a commit frame carries is the fixed point of that rendering's
// round trip (canonEntry), so live, replayed and sealed state agree by
// construction. Sealed segments store records in the same codec: a
// trace's run is a commit payload (segment.go).
//
// Torn or corrupt tails are detected by the CRC/length checks and truncated
// on recovery, so a crash mid-append loses at most the requests of the
// group commit being written. A frame whose CRC holds but whose opcode is
// not one a frame may start with is not a torn tail, and Open fails naming
// the file and the offset rather than truncate it. That covers frames of a
// newer binary and the one-record row frames (opPutNode, opPutEdge or
// opUpdateNode followed by four length-prefixed Table-1 columns) that only
// binaries older than the commit frame wrote.
//
// The log can span multiple files. Steady state is a single main file
// (provenance.log). During a log rewrite, appends are redirected to a side
// file (provenance.log.side.<gen>); the rewritten main log begins with a
// marker frame recording the side generation it folded in, which is how
// recovery decides whether a surviving side file is stale (already folded)
// or carries appends the main log does not have. See compact.go.

const logMagic = "PROVLOG2"

// opcode identifies the mutation a log entry carries.
type opcode byte

const (
	// opPutNode, opPutEdge and opUpdateNode name a record's mutation inside
	// an opCommit frame or a sealed trace run; no frame starts with one.
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
	// restart the counter from the record count.
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
	// through the group commit once the segment is written and validated —
	// moves it out of the hot tier. Apply evicts the trace only if it is
	// still resident at exactly gen: a write that landed between the seal
	// and the marker keeps it hot. The trace's records stay in the log ahead
	// of the marker until a rewrite, which fsyncs the segment first, so
	// replay evicts only for a copy that reads back.
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
	// errUnknownOp is an opcode no frame this binary reads starts with.
	errUnknownOp = errors.New("store: unknown log opcode")
)

// entry is one log record: a node or edge mutation (node / edge set, app
// its trace), or a trace entry (app the trace it names). gen is meaningful
// only for the compaction marker and trace entries, seg only for promotion
// and demotion markers.
type entry struct {
	op   opcode
	app  string
	gen  uint64
	seg  uint64
	node *provenance.Node
	edge *provenance.Edge
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
func decodeFrame(payload []byte, names nameTable) ([]entry, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("store: empty log payload")
	}
	if opcode(payload[0]) == opCommit {
		return decodeCommit(payload[1:], names)
	}
	e, err := decodeEntry(payload)
	if err != nil {
		return nil, err
	}
	return []entry{e}, nil
}

// decodeEntry decodes the payload of a compaction marker or a trace entry.
func decodeEntry(payload []byte) (entry, error) {
	e := entry{op: opcode(payload[0])}
	if e.op == opCompactMark {
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
	// maxFrame bounds a frame's payload: readPayload reads a longer one as
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

// addTrace encodes one trace's records, nodes then edges, into the pending
// frame. If they carry a frame that holds other records past
// commitFrameBytes, it takes them back, appends the frame of the records
// before them to dst, and adds them again, record by record (add), so
// only a trace larger than commitFrameBytes spans frames.
func (c *commitEnc) addTrace(dst []byte, nodes []*provenance.Node, edges []*provenance.Edge) ([]byte, error) {
	recs, n, tab := len(c.recs), c.n, len(c.tab)
	for _, nd := range nodes {
		c.record(entry{op: opPutNode, node: nd})
	}
	for _, e := range edges {
		c.record(entry{op: opPutEdge, edge: e})
	}
	if c.tabLen+len(c.recs) < commitFrameBytes {
		return dst, nil
	}
	for _, s := range c.tab[tab:] {
		delete(c.idx, s)
		c.tabLen -= len(s)
	}
	clear(c.tab[tab:])
	c.tab, c.recs, c.n = c.tab[:tab], c.recs[:recs], n
	dst, err := c.flush(dst)
	for i := 0; err == nil && i < len(nodes); i++ {
		dst, err = c.add(dst, entry{op: opPutNode, node: nodes[i]})
	}
	for i := 0; err == nil && i < len(edges); i++ {
		dst, err = c.add(dst, entry{op: opPutEdge, edge: edges[i]})
	}
	return dst, err
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

// fields appends a record's timestamp and its present attributes, in the
// record's name order.
func (c *commitEnc) fields(ts time.Time, attrs provenance.Attrs) {
	c.recs = binary.AppendVarint(c.recs, ts.Unix())
	c.recs = binary.AppendUvarint(c.recs, uint64(ts.Nanosecond()))
	k := 0
	for _, a := range attrs {
		if !a.Value.IsZero() {
			k++
		}
	}
	c.recs = binary.AppendUvarint(c.recs, uint64(k))
	for _, a := range attrs {
		if v := a.Value; !v.IsZero() {
			c.ref(a.Name)
			c.recs = appendStr(append(c.recs, byte(v.Kind())), v.Text())
		}
	}
}

// nameTable maps each type, relation and attribute name the store's model
// declares to the model's own string. Open builds it and nothing writes it
// afterwards, so decoders share it without a lock. A string-table entry
// found in it costs a decode no allocation, and every record naming it
// shares the model's string. A nil table resolves nothing.
type nameTable map[string]string

func newNameTable(m *provenance.Model) nameTable {
	if m == nil {
		return nil
	}
	t := nameTable{}
	for _, td := range m.Types() {
		t[td.Name] = td.Name
		for _, f := range td.Fields() {
			t[f.Name] = f.Name
		}
	}
	for _, r := range m.Relations() {
		t[r.Name] = r.Name
	}
	return t
}

// A commit payload is decoded in two passes over its bytes. scanCommit
// walks the whole layout without allocating and counts what parsed; a
// payload it refuses costs nothing, and one it accepts is decoded into
// allocations of exactly those counts. A count a payload merely claims
// never sizes memory its bytes do not hold.

// decodeCommit decodes the commit payload (after its opcode) of a log
// frame. Log frames mix traces, so every record owns its memory: its Node
// or Edge, its ID, its attribute slice and one buffer for its string
// values, and no record keeps the frame buffer or another trace's record
// alive. A payload that does not parse exactly — a length or index out of
// range, an unknown opcode, a value its kind cannot read, a trailing byte
// — is an error, which replay reads as a torn frame.
func decodeCommit(p []byte, names nameTable) ([]entry, error) {
	if _, _, err := scanCommit(p, nil); err != nil {
		return nil, err
	}
	c := frameCursor{p: p, names: names}
	if err := c.payload(nil); err != nil {
		return nil, err
	}
	return c.es, nil
}

// decodeRun decodes the commit payload (after its opcode) of tr's sealed
// run. It refuses what decodeCommit refuses and, beyond that, a run that
// does not hold exactly tr.Rows node and edge puts, all of trace tr.App.
//
// A run holds one trace, so its records share memory by the trace: the
// nodes, the edges, the attributes and the bytes of the string values
// each come from one exact-size allocation, and nothing keeps p. IDs, the
// trace ID (tr.App itself) and names are owned separately, as
// decodeCommit's are: they outlive the records — in cached verdicts'
// bindings, cache keys and dashboard rows — and must not keep a run's
// memory alive.
func decodeRun(p []byte, tr segTrace, names nameTable) ([]*provenance.Node, []*provenance.Edge, error) {
	n, _, err := scanCommit(p, nil)
	if err != nil {
		return nil, nil, err
	}
	if n.recs != tr.Rows {
		return nil, nil, fmt.Errorf("trace %s has %d records, the index says %d", tr.App, n.recs, tr.Rows)
	}
	c := frameCursor{
		p: p, names: names, run: true, app: tr.App,
		nodes: make([]provenance.Node, 0, n.nodes),
		edges: make([]provenance.Edge, 0, n.edges),
		attrs: make(provenance.Attrs, 0, n.attrs),
		vals:  valueBuffer(n.strBytes),
	}
	if err := c.payload(nil); err != nil {
		return nil, nil, err
	}
	return pointers(c.nodes), pointers(c.edges), nil
}

// traceRun is one run of a commit payload decoded by run (decodeTraces):
// one trace's nodes, then its edges, each in payload order.
type traceRun struct {
	app   string
	nodes []*provenance.Node
	edges []*provenance.Edge
	// whole is set when restoring the run in one step (RestoreTrace), onto
	// a graph that lacks the trace and every ID the run holds, has the
	// effect of applying its records one by one: every record is valid,
	// each kind strictly ascends by ID, and no edge has a node's ID. An edge
	// whose endpoint the run lacks fails the restore itself.
	whole bool
}

// decodeTraces decodes the commit payload (after its opcode) of a log
// frame for replay. A payload of node and edge puts, none of whose traces
// resident reports, decodes run by run (payloadCounts) to runs: a run's
// records share memory as a sealed run's do (decodeRun), exact-size
// allocations of the run's own, so no trace's records keep another's
// memory alive. Any other payload decodes as decodeCommit decodes it, to
// es. It refuses what decodeCommit refuses, and runs hold decodeCommit's
// records in decodeCommit's order.
func decodeTraces(p []byte, names nameTable, resident func(app string) bool) (runs []traceRun, es []entry, err error) {
	// A live commit's frame is mostly one run: room for it costs nothing.
	n, counts, err := scanCommit(p, make([]runCounts, 0, 1))
	if err != nil {
		return nil, nil, err
	}
	if n.updates > 0 {
		counts = nil
	}
	c := frameCursor{p: p, names: names, resident: resident}
	if err := c.payload(counts); err != nil {
		return nil, nil, err
	}
	return c.runs, c.es, nil
}

// pointers returns a pointer to each element of s; nil if s is empty.
func pointers[T any](s []T) []*T {
	if len(s) == 0 {
		return nil
	}
	ps := make([]*T, len(s))
	for i := range s {
		ps[i] = &s[i]
	}
	return ps
}

// valueBuffer allocates the buffer a sealed run's string values are
// copied into. A variable so that tests can see each buffer.
var valueBuffer = func(n int) []byte { return make([]byte, 0, n) }

// payloadCounts is what scanCommit counted in a payload or a run of it:
// records, nodes (updates among them), edges, attributes and the bytes of
// the string values. A run, decodeTraces' unit, is a maximal sequence of
// one trace's records in which no node follows an edge.
type payloadCounts struct {
	recs, nodes, updates, edges, attrs, strBytes int
}

// scanCommit checks a commit payload's layout — every length, index,
// opcode and varint, no trailing byte — and counts what it holds. What it
// leaves to the decode is what needs the strings: an ID's prefix length,
// a value's text and the order of names. Given runs, it appends each
// run's counts and trace to it and returns it.
func scanCommit(p []byte, runs []runCounts) (payloadCounts, []runCounts, error) {
	var n payloadCounts
	c := frameCursor{p: p}
	tab := c.uvarint()
	if tab > uint64(c.left()) {
		return n, nil, errors.New("store: commit frame string table overruns the frame")
	}
	for i := uint64(0); i < tab && !c.bad; i++ {
		c.bytes()
	}
	m := c.uvarint()
	if m == 0 || m > uint64(c.left())/minCommitRecord {
		return n, nil, errors.New("store: commit frame record count out of range")
	}
	var run runScan
	for i := uint64(0); i < m && !c.bad; i++ {
		r := payloadCounts{recs: 1}
		op, app := c.scanRecord(tab, &r)
		n.add(r)
		if runs == nil {
			continue
		}
		if run.next(op, app) {
			runs = append(runs, runCounts{app: app})
		}
		runs[len(runs)-1].add(r)
	}
	if c.bad || c.left() != 0 {
		return n, nil, errors.New("store: malformed commit frame")
	}
	return n, runs, nil
}

// add adds r's counts to n's.
func (n *payloadCounts) add(r payloadCounts) {
	n.recs += r.recs
	n.nodes += r.nodes
	n.updates += r.updates
	n.edges += r.edges
	n.attrs += r.attrs
	n.strBytes += r.strBytes
}

// runCounts is what scanCommit counted in one run, and the string-table
// index of its trace.
type runCounts struct {
	payloadCounts
	app uint64
}

// runScan follows the records of a payload in order and tells where each
// run starts (payloadCounts).
type runScan struct {
	started bool
	app     uint64
	edges   bool
}

// next takes a record's opcode and trace index and reports whether the
// record starts a run.
func (r *runScan) next(op opcode, app uint64) bool {
	edge := op == opPutEdge
	if r.started && app == r.app && (edge || !r.edges) {
		r.edges = r.edges || edge
		return false
	}
	*r = runScan{started: true, app: app, edges: edge}
	return true
}

// scanRecord walks one record of a payload whose string table holds tab
// entries, adds it to n's node, update, edge, attribute and string-byte
// counts, and returns its opcode and trace index.
func (c *frameCursor) scanRecord(tab uint64, n *payloadCounts) (opcode, uint64) {
	op := opcode(c.byte())
	app := c.uvarint()
	if app >= tab {
		c.fail()
	}
	c.skipID()
	switch op {
	case opPutNode, opUpdateNode:
		c.byte()
		c.skipRef(tab)
		n.nodes++
		if op == opUpdateNode {
			n.updates++
		}
	case opPutEdge:
		c.skipRef(tab)
		c.skipID()
		c.skipID()
		n.edges++
	default:
		c.fail()
	}
	c.timestamp()
	k := c.uvarint()
	for j := uint64(0); j < k && !c.bad; j++ {
		c.skipRef(tab)
		kind := provenance.Kind(c.byte())
		if b := c.bytes(); kind == provenance.KindString {
			n.strBytes += len(b)
		}
		n.attrs++
	}
	return op, app
}

// frameCursor reads one commit payload from offset i on. The first field
// that does not parse sets bad, which sticks; every later read is then
// harmless.
type frameCursor struct {
	p   []byte
	i   int
	bad bool
	// err is why a sealed run was refused, when a more precise reason
	// than "malformed" is known.
	err   error
	names nameTable
	// A log frame's records go to es. run marks a sealed run of trace app,
	// whose records go to nodes and edges, with their attributes in attrs
	// and the bytes of their string values in vals. A log frame decoded by
	// run goes to runs, each run decoded as a sealed run is, unless resident
	// reports one of its traces (payload).
	es       []entry
	run      bool
	app      string
	nodes    []provenance.Node
	edges    []provenance.Edge
	attrs    provenance.Attrs
	vals     []byte
	resident func(app string) bool
	runs     []traceRun
	*decodeScratch
}

// decodeScratch is the memory a decode needs only while it runs: the
// string table, the buffer an ID is assembled in, and the IDs of the
// nodes decoded so far, which an edge's endpoints share. nodeIDs is
// searched while it is sorted, as in a sealed run and a rewritten log;
// byID indexes it once it is not.
type decodeScratch struct {
	tab      []string
	id       []byte
	nodeIDs  []string
	unsorted bool
	byID     map[string]string
}

// scratchPool holds decode scratch for every store in the process: a pool
// per store would keep a closed store's scratch alive with the store.
var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// maxPooledScratch bounds the scratch put back in scratchPool: a decode
// of a larger table or more nodes drops its scratch, so one outsized
// payload does not keep its memory for every later small decode.
const maxPooledScratch = 1 << 15

// payload decodes a payload scanCommit accepted, with scratch from
// scratchPool: run by run when given the runs' counts (scanCommit's) and
// no run's trace is resident, else record by record.
func (c *frameCursor) payload(counts []runCounts) error {
	sc := scratchPool.Get().(*decodeScratch)
	c.decodeScratch = sc
	defer func() {
		c.decodeScratch = nil
		if len(sc.tab) > maxPooledScratch || len(sc.nodeIDs) > maxPooledScratch {
			return
		}
		// Cleared, so the pool keeps no decoded string alive.
		clear(sc.tab)
		clear(sc.nodeIDs)
		sc.tab, sc.nodeIDs, sc.unsorted, sc.byID = sc.tab[:0], sc.nodeIDs[:0], false, nil
		scratchPool.Put(sc)
	}()
	n := c.uvarint()
	for i := uint64(0); i < n && !c.bad; i++ {
		c.tab = append(c.tab, c.tabEntry())
	}
	if m := c.uvarint(); counts != nil && !c.bad && !c.anyResident(counts) {
		c.traceRuns(counts)
	} else {
		if !c.run {
			c.es = make([]entry, 0, m)
		}
		for i := uint64(0); i < m && !c.bad; i++ {
			c.record()
		}
	}
	switch {
	case c.err != nil:
		return c.err
	case c.bad || c.left() != 0:
		return errors.New("store: malformed commit frame")
	}
	return nil
}

// anyResident reports whether resident reports the trace of a run, once
// the string table is read.
func (c *frameCursor) anyResident(counts []runCounts) bool {
	for _, n := range counts {
		if c.resident(c.tab[n.app]) {
			return true
		}
	}
	return false
}

// traceRuns decodes a payload's records run by run into runs, each into
// exact-size allocations of its counts.
func (c *frameCursor) traceRuns(counts []runCounts) {
	c.runs = make([]traceRun, 0, len(counts))
	for _, n := range counts {
		c.run, c.app = true, c.tab[n.app]
		c.nodes = make([]provenance.Node, 0, n.nodes)
		c.edges = make([]provenance.Edge, 0, n.edges)
		c.attrs = make(provenance.Attrs, 0, n.attrs)
		c.vals = valueBuffer(n.strBytes)
		// An edge's endpoints are looked up among its own run's nodes.
		clear(c.nodeIDs)
		c.nodeIDs, c.unsorted, c.byID = c.nodeIDs[:0], false, nil
		for i := 0; i < n.recs && !c.bad; i++ {
			c.record()
		}
		if c.bad {
			return
		}
		r := traceRun{app: c.app, nodes: pointers(c.nodes), edges: pointers(c.edges), whole: !c.unsorted}
		for i := 0; r.whole && i < len(r.nodes); i++ {
			r.whole = r.nodes[i].Validate() == nil
		}
		for i := 0; r.whole && i < len(r.edges); i++ {
			e := r.edges[i]
			_, clash := slices.BinarySearch(c.nodeIDs, e.ID)
			r.whole = !clash && (i == 0 || e.ID > r.edges[i-1].ID) && e.Validate() == nil
		}
		c.runs = append(c.runs, r)
	}
}

// left is the number of bytes not read yet.
func (c *frameCursor) left() int { return len(c.p) - c.i }

func (c *frameCursor) fail() {
	c.bad, c.i = true, len(c.p)
}

func (c *frameCursor) byte() byte {
	if c.i >= len(c.p) {
		c.fail()
		return 0
	}
	c.i++
	return c.p[c.i-1]
}

func (c *frameCursor) uvarint() uint64 {
	if i := c.i; i < len(c.p) && c.p[i] < 0x80 { // most are one byte
		c.i = i + 1
		return uint64(c.p[i])
	}
	v, n := binary.Uvarint(c.p[c.i:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.i += n
	return v
}

// int reads a uvarint that must fit an int.
func (c *frameCursor) int() int {
	v := c.uvarint()
	if v > math.MaxInt {
		c.fail()
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed string in place.
func (c *frameCursor) bytes() []byte {
	n := c.uvarint()
	if n > uint64(c.left()) {
		c.fail()
		return nil
	}
	j := c.i + int(n)
	b := c.p[c.i:j:j]
	c.i = j
	return b
}

func (c *frameCursor) timestamp() time.Time {
	sec, n := binary.Varint(c.p[c.i:])
	if n <= 0 {
		c.fail()
		return time.Time{}
	}
	c.i += n
	nsec := c.uvarint()
	if nsec >= 1e9 {
		c.fail()
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// skipRef reads a string-table index into a table of tab entries.
func (c *frameCursor) skipRef(tab uint64) {
	if c.uvarint() >= tab {
		c.fail()
	}
}

// skipID reads a record ID's prefix length and rest.
func (c *frameCursor) skipID() {
	c.uvarint()
	c.bytes()
}

// tabEntry reads a string-table entry. A model name or the sealed run's
// trace ID costs no allocation; anything else is copied once.
func (c *frameCursor) tabEntry() string {
	b := c.bytes()
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	if c.run && string(b) == c.app {
		return c.app
	}
	return string(b)
}

// ref reads a string-table index.
func (c *frameCursor) ref() string {
	i := c.uvarint()
	if i >= uint64(len(c.tab)) {
		c.fail()
		return ""
	}
	return c.tab[i]
}

// idBytes reads a record ID coded against trace ID app into the scratch
// buffer.
func (c *frameCursor) idBytes(app string) []byte {
	p := c.uvarint()
	rest := c.bytes()
	if p > uint64(len(app)) {
		c.fail()
	}
	if c.bad {
		return nil
	}
	c.id = append(append(c.id[:0], app[:p]...), rest...)
	return c.id
}

// nodeID reads a node's ID, one allocation, and notes it for the edges
// that follow.
func (c *frameCursor) nodeID(app string) string {
	id := string(c.idBytes(app))
	if n := len(c.nodeIDs); n > 0 && id <= c.nodeIDs[n-1] {
		c.unsorted = true
	}
	c.nodeIDs = append(c.nodeIDs, id)
	if c.byID != nil {
		c.byID[id] = id
	}
	return id
}

// endpoint reads an edge's source or target: the ID string of a node the
// payload decoded before it, or else one allocation.
func (c *frameCursor) endpoint(app string) string {
	b := c.idBytes(app)
	if len(b) == 0 {
		return ""
	}
	key := unsafe.String(&b[0], len(b)) // only to look up: b is reused
	if !c.unsorted {
		if i, ok := slices.BinarySearch(c.nodeIDs, key); ok {
			return c.nodeIDs[i]
		}
		return string(b)
	}
	if c.byID == nil {
		c.byID = make(map[string]string, len(c.nodeIDs))
		for _, id := range c.nodeIDs {
			c.byID[id] = id
		}
	}
	if id, ok := c.byID[key]; ok {
		return id
	}
	return string(b)
}

func (c *frameCursor) record() {
	op := opcode(c.byte())
	app := c.ref()
	if c.run && !c.bad {
		switch {
		case app != c.app:
			c.err = fmt.Errorf("trace %s's run holds a record of trace %q", c.app, app)
		case op != opPutNode && op != opPutEdge:
			c.err = fmt.Errorf("trace %s's run holds an opcode %d record", c.app, op)
		}
		if c.err != nil {
			c.fail()
			return
		}
	}
	switch op {
	case opPutNode, opUpdateNode:
		id := c.nodeID(app)
		class := provenance.Class(c.byte())
		typ := c.ref()
		ts := c.timestamp()
		if c.run {
			c.nodes = append(c.nodes, provenance.Node{ID: id, Class: class, Type: typ, AppID: app, Timestamp: ts})
			c.nodes[len(c.nodes)-1].Attrs = c.runAttrs()
			return
		}
		n := &provenance.Node{ID: id, Class: class, Type: typ, AppID: app, Timestamp: ts, Attrs: c.ownAttrs()}
		c.es = append(c.es, entry{op: op, app: app, node: n})
	case opPutEdge:
		id := string(c.idBytes(app))
		typ := c.ref()
		src, dst := c.endpoint(app), c.endpoint(app)
		ts := c.timestamp()
		if c.run {
			c.edges = append(c.edges, provenance.Edge{ID: id, Type: typ, AppID: app, Source: src, Target: dst, Timestamp: ts})
			c.edges[len(c.edges)-1].Attrs = c.runAttrs()
			return
		}
		e := &provenance.Edge{ID: id, Type: typ, AppID: app, Source: src, Target: dst, Timestamp: ts, Attrs: c.ownAttrs()}
		c.es = append(c.es, entry{op: op, app: app, edge: e})
	default:
		c.fail()
	}
}

// runAttrs reads a sealed run's record's attributes onto the run's one
// attribute array, which scanCommit sized, and returns them.
func (c *frameCursor) runAttrs() provenance.Attrs {
	a0 := len(c.attrs)
	c.attrs = c.fields(c.attrs, c.uvarint())
	if len(c.attrs) == a0 {
		return nil
	}
	return c.attrs[a0:len(c.attrs):len(c.attrs)]
}

// ownAttrs reads a log record's attributes into a slice of their own, and
// their string values, substrings of the payload until then, into one
// buffer of the record's own.
func (c *frameCursor) ownAttrs() provenance.Attrs {
	k := c.uvarint() // scanCommit parsed that many
	if k == 0 {
		return nil
	}
	a := c.fields(make(provenance.Attrs, 0, k), k)
	n := 0
	for _, at := range a {
		n += len(at.Value.Str())
	}
	if n == 0 {
		return a
	}
	buf := make([]byte, 0, n)
	for i, at := range a {
		if s := at.Value.Str(); s != "" {
			buf = append(buf, s...)
			a[i].Value = provenance.String(unsafe.String(&buf[len(buf)-len(s)], len(s)))
		}
	}
	return a
}

// fields appends a record's k attributes to dst. Names must come in
// strictly increasing order, as the encoder writes them.
func (c *frameCursor) fields(dst provenance.Attrs, k uint64) provenance.Attrs {
	a0 := len(dst)
	for i := uint64(0); i < k && !c.bad; i++ {
		name := c.ref()
		kind := provenance.Kind(c.byte())
		v, err := c.value(kind, c.bytes())
		if err != nil || c.bad || i > 0 && name <= dst[a0+int(i)-1].Name {
			c.fail()
			break
		}
		dst = append(dst, provenance.Attr{Name: name, Value: v})
	}
	return dst
}

// value parses a value's text in place. A sealed run's string is copied
// onto vals, which scanCommit sized; a log frame's stays a substring of the
// payload until its record moves it out (ownAttrs). Any other kind keeps
// no reference to its text (ParseValue's contract), so it is parsed from
// the payload's bytes without a string in between.
func (c *frameCursor) value(kind provenance.Kind, b []byte) (provenance.Value, error) {
	if kind != provenance.KindString {
		return provenance.ParseValue(kind, unsafe.String(unsafe.SliceData(b), len(b)))
	}
	if len(b) == 0 {
		return provenance.String(""), nil
	}
	if c.run {
		c.vals = append(c.vals, b...)
		b = c.vals[len(c.vals)-len(b):]
	}
	return provenance.String(unsafe.String(&b[0], len(b))), nil
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
	// fresh is set when createOrOpenLog made the file (or found it empty)
	// and no directory sync has covered its name since: until one does, a
	// power cut may take the whole file, however often it was fsynced.
	// The group committer syncs the directory with the first commit it
	// fsyncs (syncDir), so Open pays no device sync of its own.
	fresh bool
	// err is the first write, flush or fsync error. The file may then hold
	// frames of requests that failed, which a later fsync would make
	// durable, so every later write, flush and fsync returns it: the log
	// takes nothing more until it is closed.
	err error
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
	fresh := size == 0
	if fresh {
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
	return &logWriter{fs: fsys, path: path, f: f, buf: bufio.NewWriter(f), sync: sync, size: size, fresh: fresh}, nil
}

// write buffers encoded frames. Nothing reaches the file (let alone the
// disk) until flush; the group committer amortizes flush+fsync over a
// batch of requests.
func (w *logWriter) write(frames []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.buf.Write(frames)
	w.size += int64(n)
	w.err = err
	return err
}

func (w *logWriter) flush() error {
	if w.err == nil {
		w.err = w.buf.Flush()
	}
	return w.err
}

func (w *logWriter) syncFile() error {
	if w.err == nil {
		w.err = w.f.Sync()
	}
	return w.err
}

// syncDir fsyncs the log's directory if the file is fresh, so the name
// of a file holding fsynced frames survives a power cut too.
func (w *logWriter) syncDir() error {
	if w.err == nil && w.fresh {
		w.err = syncParentDir(w.fs, w.path)
		w.fresh = w.err != nil
	}
	return w.err
}

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

// runReplay is what replayLog needs to replay commit frames run by run
// (decodeTraces): which traces are resident already, and a restore of a
// frame's runs that returns how many of their records it applied and
// skipped.
type runReplay struct {
	resident func(app string) bool
	restore  func([]traceRun) (applied, skipped int)
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
}

// replayLog reads every intact entry from the log file at path. When the
// tail is torn or corrupt it truncates the file to the last intact frame
// and reports how many bytes were dropped. A missing file replays
// nothing. Entries that fail to apply are skipped, not fatal: the writer
// that produced the log also failed to apply them (append happens before
// apply), so a poisoned entry must not brick recovery.
//
// With runs set, a commit frame that decodeTraces decodes run by run goes
// to runs.restore whole; every other frame's entries go to apply one by
// one, as they all do without it.
func replayLog(fsys FS, path string, names nameTable, apply func(entry) error, runs *runReplay) (replayResult, error) {
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

	good := int64(len(logMagic))
	for {
		payload, frameLen, rerr := readPayload(r)
		if rerr == io.EOF {
			break
		}
		var es []entry
		switch {
		case rerr != nil:
		case runs != nil && opcode(payload[0]) == opCommit:
			var rs []traceRun
			if rs, es, rerr = decodeTraces(payload[1:], names, runs.resident); rerr != nil {
				rerr = errTornFrame
			} else if rs != nil {
				applied, skipped := runs.restore(rs)
				res.applied += applied
				res.skipped += skipped
				good += frameLen
				continue
			}
		default:
			es, rerr = decodePayload(payload, names)
		}
		if errors.Is(rerr, errUnknownOp) {
			return res, fmt.Errorf("store: %s: the frame at offset %d is intact but this binary does not read its opcode (%v): refusing to truncate it", path, good, rerr)
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

// checkMagic accepts the one header this binary reads.
func checkMagic(path string, magic []byte) error {
	if string(magic) != logMagic {
		return fmt.Errorf("store: %s is not a provenance log (bad magic %q)", path, magic)
	}
	return nil
}

// readPayload reads one frame and returns its CRC-checked payload and its
// length on disk. io.EOF means a clean end; any other error means a torn
// or corrupt frame.
func readPayload(r *bufio.Reader) ([]byte, int64, error) {
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
	return payload, int64(8 + n), nil
}

// decodePayload decodes an intact frame's payload into its entries. An
// error wrapping errUnknownOp means an opcode this binary does not know;
// any other error means a torn or corrupt frame.
func decodePayload(payload []byte, names nameTable) ([]entry, error) {
	es, err := decodeFrame(payload, names)
	if err != nil && !errors.Is(err, errUnknownOp) {
		return nil, errTornFrame
	}
	return es, err
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
