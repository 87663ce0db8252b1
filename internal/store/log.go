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
	"strconv"
	"strings"

	"repro/internal/provenance"
)

// The disk log is a sequence of frames following an 8-byte magic header.
// Each frame is:
//
//	uint32 length of payload (little endian)
//	uint32 CRC-32 (IEEE) of payload
//	payload bytes
//
// A payload is one log entry: a one-byte opcode followed by
//
//   - the four length-prefixed row columns (ID, CLASS, APPID, XML) for the
//     three row opcodes;
//   - an 8-byte generation number for the compaction marker;
//   - an 8-byte version or sequence and the length-prefixed trace ID for a
//     version pin or a trace tombstone;
//   - an 8-byte sealed version, an 8-byte segment ID and the length-prefixed
//     trace ID for a promotion marker (≈ 40 bytes framed): the trace's base
//     rows are NOT in the log, they stay in the named segment.
//
// Torn or corrupt tails are detected by the CRC/length checks and truncated
// on recovery, so a crash mid-append loses at most the records of the batch
// being written.
//
// The log can span multiple files. Steady state is a single main file
// (provenance.log). During a compaction, appends are redirected to a side
// file (provenance.log.side.<gen>); the rewritten main log begins with a
// marker frame recording the side generation it folded in, which is how
// recovery decides whether a surviving side file is stale (already folded)
// or carries appends the main log does not have. See Store.Compact.

const logMagic = "PROVLOG1"

// opcode identifies the mutation a log entry carries.
type opcode byte

const (
	opPutNode opcode = iota + 1
	opPutEdge
	opUpdateNode
	// opCompactMark is a compaction watermark: every side-log generation
	// up to and including its value is folded into the frames that follow.
	opCompactMark
	// opTraceVer pins one trace's version counter. A compaction rewrite
	// collapses update chains, so each rewritten trace's rows are followed
	// by this entry and replay rebuilds the trace at exactly the version
	// the writer acknowledged; per-row replays alone would restart the
	// counter from the row count. (Logs written before opPromote existed
	// also carry it behind a promoted trace's re-logged base rows.)
	opTraceVer
	// opTraceDrop is a trace tombstone: shard handoff commits one after
	// the trace's rows were shipped to their new owner, so replay removes
	// the trace instead of resurrecting it. gen carries the drop's
	// sequence so the tier can tell pre-drop sealed copies (scrubbed)
	// from post-drop re-imports (kept). Tombstones disappear at the next
	// compaction, whose rewrite is built from the already-dropped state.
	opTraceDrop
	// opPromote is a promotion by reference: a write landed on a sealed
	// trace, and instead of copying the trace's rows into the log the
	// commit wrote this one frame — trace ID, sealed version (gen), segment
	// ID (seg) — ahead of its delta. Replay restores the trace from that
	// segment at that version, exactly as the live path did, before the
	// delta applies; the segment stays the trace's durable base until a
	// compaction rewrites the resident trace's rows into a new main log.
	opPromote
)

// namesTrace reports whether the opcode's payload is a trace ID with a
// number or two, not a row.
func (op opcode) namesTrace() bool {
	return op == opTraceVer || op == opTraceDrop || op == opPromote
}

var errTornFrame = errors.New("store: torn or corrupt log frame")

// entry is one log record. gen is meaningful only for opCompactMark,
// opTraceVer, opTraceDrop and opPromote entries, seg only for opPromote.
// node / edge is the record the row encodes, carried by live commits (see
// liveNode) so apply does not decode what the same call just encoded; both
// are nil on entries read off disk.
type entry struct {
	op   opcode
	row  Row
	gen  uint64
	seg  uint64
	node *provenance.Node
	edge *provenance.Edge
}

func encodeEntry(e entry) []byte {
	if e.op == opCompactMark {
		buf := make([]byte, 9)
		buf[0] = byte(e.op)
		binary.LittleEndian.PutUint64(buf[1:], e.gen)
		return buf
	}
	if e.op.namesTrace() {
		// op + version/seq (reusing gen) + segment ID (opPromote only) +
		// length-prefixed trace ID.
		buf := make([]byte, 0, 21+len(e.row.AppID))
		buf = append(buf, byte(e.op))
		buf = binary.LittleEndian.AppendUint64(buf, e.gen)
		if e.op == opPromote {
			buf = binary.LittleEndian.AppendUint64(buf, e.seg)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.row.AppID)))
		return append(buf, e.row.AppID...)
	}
	cols := [4]string{e.row.ID, e.row.Class, e.row.AppID, e.row.XML}
	size := 1
	for _, c := range cols {
		size += 4 + len(c)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, byte(e.op))
	for _, c := range cols {
		var lenb [4]byte
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(c)))
		buf = append(buf, lenb[:]...)
		buf = append(buf, c...)
	}
	return buf
}

func decodeEntry(payload []byte) (entry, error) {
	if len(payload) < 1 {
		return entry{}, fmt.Errorf("store: empty log payload")
	}
	e := entry{op: opcode(payload[0])}
	if e.op == opCompactMark {
		if len(payload) != 9 {
			return entry{}, fmt.Errorf("store: compact marker payload is %d bytes", len(payload))
		}
		e.gen = binary.LittleEndian.Uint64(payload[1:])
		return e, nil
	}
	if e.op.namesTrace() {
		p, fixed := payload[1:], 12 // gen + the trace ID's length prefix
		if e.op == opPromote {
			fixed = 20
		}
		if len(p) < fixed {
			return entry{}, fmt.Errorf("store: trace-entry payload is %d bytes", len(payload))
		}
		e.gen = binary.LittleEndian.Uint64(p)
		if e.op == opPromote {
			e.seg = binary.LittleEndian.Uint64(p[8:])
		}
		if n := binary.LittleEndian.Uint32(p[fixed-4:]); uint32(len(p)-fixed) != n {
			return entry{}, fmt.Errorf("store: trace-entry payload length mismatch")
		}
		e.row.AppID = string(p[fixed:])
		return e, nil
	}
	c, err := rowCols(payload, 0, len(payload))
	if err != nil {
		return entry{}, fmt.Errorf("store: log payload: %v", err)
	}
	col := func(i int) string { return string(payload[c[i][0]:c[i][1]]) }
	e.row = Row{ID: col(0), Class: col(1), AppID: col(2), XML: col(3)}
	return e, nil
}

// rowCols locates the columns of the row record p[start:end] — an opcode
// byte, then ID, CLASS, APPID and XML, each length-prefixed — as offsets
// into p. It is the one parser of that layout: log frames (decodeEntry)
// and sealed blocks (recAt) both read it through here.
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
	if st.Size() == 0 {
		if _, err := f.Write([]byte(logMagic)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &logWriter{fs: fsys, path: path, f: f, buf: bufio.NewWriter(f), sync: sync}, nil
}

// writeEntry buffers one frame. Nothing reaches the file (let alone the
// disk) until flush; the group committer amortizes flush+fsync over a
// batch of entries.
func (w *logWriter) writeEntry(e entry) error {
	payload := encodeEntry(e)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.buf.Write(payload)
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
	if string(magic) != logMagic {
		return res, fmt.Errorf("store: %s is not a provenance log (bad magic)", path)
	}

	good := int64(len(logMagic))
	for {
		e, frameLen, rerr := readFrame(r)
		if rerr == io.EOF {
			break
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
		if e.op == opCompactMark {
			if e.gen > res.folded {
				res.folded = e.gen
			}
		} else if aerr := apply(e); aerr != nil {
			res.skipped++
		} else {
			res.applied++
		}
		good += frameLen
	}
	return res, nil
}

// readFrame reads one frame. io.EOF means a clean end; any other error
// means a torn or corrupt frame.
func readFrame(r *bufio.Reader) (entry, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return entry{}, 0, io.EOF
		}
		return entry{}, 0, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	const maxFrame = 64 << 20 // defensive bound against garbage lengths
	if n == 0 || n > maxFrame {
		return entry{}, 0, errTornFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return entry{}, 0, errTornFrame
	}
	if crc32.ChecksumIEEE(payload) != want {
		return entry{}, 0, errTornFrame
	}
	e, err := decodeEntry(payload)
	if err != nil {
		return entry{}, 0, errTornFrame
	}
	return e, int64(8 + n), nil
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
	if string(hdr) != logMagic {
		return fmt.Errorf("store: %s is not a provenance log (bad magic)", src)
	}
	_, err = io.Copy(w.buf, f)
	return err
}
