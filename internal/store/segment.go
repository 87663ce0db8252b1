package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/provenance"
)

// A sealed segment is an immutable on-disk file holding the records of
// traces demoted out of the hot tier. Layout:
//
//	8-byte magic "PROVSEG1"
//	data blocks    — each one CRC frame (uint32 len, uint32 CRC-32,
//	                 payload); the payload is a sequence of trace runs,
//	                 one per trace: uint32 len, then exactly the commit
//	                 payload commitEnc writes for the trace's records —
//	                 nodes by ID, then edges by ID, so rehydration finds
//	                 every edge's endpoints — with the trace's own string
//	                 table. The log's codec (commitEnc) is the one
//	                 record codec on disk; decodeRun reads a run.
//	                 Traces are sorted by ID and a trace never spans
//	                 blocks.
//	footer         — one CRC frame whose payload is the binary segFooter,
//	                 written in the commit codec's primitives (uvarints and
//	                 uvarint-length-prefixed strings):
//
//	                   uvarint format (3)
//	                   uvarint seal seq, min seq, max seq    zone map
//	                   str min trace ID, str max trace ID
//	                   uvarint b, b × (uvarint off, uvarint len)
//	                                                         block table
//	                   uvarint t, str IDs                    trace index:
//	                   t × (uvarint ID len, block, run offset,
//	                        version, last-touch seq, records)
//	                   4 × str                               blooms: trace
//	                                                         ID, class,
//	                                                         type, row ID
//
//	                 where IDs is every indexed trace ID, concatenated in
//	                 index order, and each entry takes the next ID len
//	                 bytes of it.
//	16-byte trailer — uint64 footer offset + 8-byte magic "PROVSEGF".
//
// The trailer is written last, so a crash mid-seal leaves a file that
// fails trailer or footer validation. Demotion does not fsync what it
// seals: the log keeps every demoted record until the next rewrite, and
// the rewrite fsyncs the segment before it drops them (compact.go). Until
// then a crash may cost the segment any of its bytes, and Open deletes an
// invalid segment sealed since the last rewrite; one the rewrite made
// durable holds records that exist nowhere else, so Open fails on it
// instead (tierManager).
//
// The footer is parsed once, at open, and everything in it stays on the
// immutable handle: zone map, blooms, block table and trace index. A
// lookup is then a binary search in memory and the only disk read of a
// cold read is its data block, out of which the index's offset slices the
// trace's run. The price is resident memory that grows with the number of
// sealed traces: the index costs 56 bytes plus the trace ID per trace and
// 16 bytes per block (about 70 bytes a trace for the hiring image,
// SegmentInfo.IndexBytes reports it), next to the roughly 25 bytes a
// trace the blooms already held. Table 1 is not stored: RowsForApp and
// Row render it from the decoded records, as for resident traces.
//
// Format 3 is the one format this binary writes. Format 2 held the same
// footer as JSON (segFooter's field tags), and this binary still reads it,
// so data dirs and handed-off segments sealed before format 3 open as they
// are; a footer frame whose payload starts with '{' is JSON. A segment
// whose footer names any other format — format 1, which stored every
// record as its Table-1 row and which only older binaries sealed, or a
// newer one — is errSegFormat: Open and ImportSegment fail naming the
// file, and nothing deletes it. A binary older than format 3 reads a
// format-3 footer as damage, not as an unknown format (see DESIGN.md).

const (
	segMagic    = "PROVSEG1"
	segEndMagic = "PROVSEGF"
	segFormat   = 3
	// segFormatJSON is the JSON footer's format, read but never written.
	segFormatJSON = 2
	// segBlockTarget is the default data-block size demotion aims for:
	// big enough to amortize frame+seek overhead and keep the footer's
	// block table short, small enough that one cold read pages in one
	// trace's neighborhood (about 14 hiring traces), not the whole file.
	// Readers take each block's length from the block table, so segments
	// sealed at another target read unchanged.
	segBlockTarget = 16 << 10
)

// errSegFormat is a segment whose trailer and footer validate but whose
// format this binary cannot read: Open fails on it even where it would
// delete an invalid segment, above the durable mark.
var errSegFormat = errors.New("unsupported segment format")

// segBlock locates one data block inside the file.
type segBlock struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"` // frame length including the 8-byte header
}

// segTrace is one demoted trace's index entry.
type segTrace struct {
	App string `json:"app"`
	// Blk indexes into the footer's block table.
	Blk int `json:"blk"`
	// Off is the offset of the trace's run in its block's payload.
	Off int `json:"off,omitempty"`
	// Ver is the trace's version counter at seal time; rehydration pins
	// it so hot/cold reads agree on versions.
	Ver uint64 `json:"ver"`
	// Last is the store sequence of the trace's last mutation, used by
	// the demotion policy's audit trail and by as-of reads.
	Last uint64 `json:"last"`
	Rows int    `json:"rows"`
}

// segFooter is the segment's self-describing index, stored inside a CRC
// frame: in binary (appendFooter, decodeFooter), or as JSON in format 2.
type segFooter struct {
	Format  int    `json:"format"`
	SealSeq uint64 `json:"seal_seq"`
	// MinSeq/MaxSeq bound the last-touch sequences of the traces inside:
	// the zone map's sequence range.
	MinSeq uint64 `json:"min_seq"`
	MaxSeq uint64 `json:"max_seq"`
	// MinApp/MaxApp bound the trace IDs inside: the zone map's ID range.
	MinApp string `json:"min_app"`
	MaxApp string `json:"max_app"`

	Blocks []segBlock `json:"blocks"`
	// Traces is sorted by App for binary search.
	Traces []segTrace `json:"traces"`

	BloomTrace []byte `json:"bloom_trace"`
	BloomClass []byte `json:"bloom_class"`
	BloomType  []byte `json:"bloom_type"`
	// BloomID covers every row (record) ID sealed in the segment. It lets
	// the store resolve a raw record ID to its owning trace without any
	// resident routing state — the hot tier's record-ID router evicts
	// demoted IDs, and after a restart it never knew them at all.
	BloomID []byte `json:"bloom_id,omitempty"`
}

// segment is the resident handle on one sealed file: identity, zone map,
// blooms and the footer's index. Immutable after openSegment, so readers
// share it without locks.
type segment struct {
	id   uint64
	path string
	fs   FS

	sealSeq uint64
	minSeq  uint64
	maxSeq  uint64
	minApp  string
	maxApp  string

	bloomTrace *bloom
	bloomClass *bloom
	bloomType  *bloom
	bloomID    *bloom

	// blocks and traces are the footer's block table and trace index
	// (sorted by trace ID); indexBytes is what keeping them costs.
	blocks     []segBlock
	traces     []segTrace
	indexBytes int64

	nRows int
	size  int64
}

// segmentsDir is where sealed segments live, beside the log.
func segmentsDir(dir string) string { return filepath.Join(dir, "segments") }

// segmentPath names segment id inside dir.
func segmentPath(dir string, id uint64) string {
	return filepath.Join(segmentsDir(dir), fmt.Sprintf("seg-%08d.seg", id))
}

// segmentIDs lists the segment IDs present under dir, ascending.
func segmentIDs(fsys FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(segmentsDir(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 10, 64)
		if err != nil {
			continue // not ours
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// sealedTrace is one trace copy on its way into or out of a segment: its
// records, nodes then edges, each sorted by ID, and the version and
// last-touch they were sealed at.
type sealedTrace struct {
	app   string
	ver   uint64
	last  uint64
	nodes []*provenance.Node
	edges []*provenance.Edge
}

// residentTrace takes a resident trace of g — records, version and
// last-touch all from the one graph version — for demotion and hot export.
func residentTrace(g *provenance.Graph, app string) sealedTrace {
	nodes, edges := traceRecords(g, app)
	return sealedTrace{app: app, ver: g.TraceVersion(app), last: g.TraceLastTouch(app), nodes: nodes, edges: edges}
}

func (st sealedTrace) records() int { return len(st.nodes) + len(st.edges) }

// writeSegment seals the given traces (any order; sorted here) into a new
// segment file at path and closes it without an fsync: the file is in the
// page cache, where openSegment validates it. Whoever needs it on the
// device syncs it (syncFile) — a log rewrite before it drops the records,
// a scrub before it renames the file over the original.
func writeSegment(fsys FS, path string, sealSeq uint64, traces []sealedTrace, blockTarget int) (*segFooter, error) {
	if blockTarget <= 0 {
		blockTarget = segBlockTarget
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].app < traces[j].app })

	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	abort := func(err error) error {
		f.Close()
		fsys.Remove(path)
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return nil, abort(err)
	}

	ft := &segFooter{Format: segFormat, SealSeq: sealSeq}
	off := int64(len(segMagic))
	var block bytes.Buffer
	flushBlock := func() error {
		if block.Len() == 0 {
			return nil
		}
		n, err := writeSegFrame(f, block.Bytes())
		if err != nil {
			return err
		}
		ft.Blocks = append(ft.Blocks, segBlock{Off: off, Len: n})
		off += n
		block.Reset()
		return nil
	}

	bt := newBloom(len(traces))
	nRecs := 0
	for _, tr := range traces {
		nRecs += tr.records()
	}
	bid := newBloom(nRecs)
	classKeys, typeKeys := map[string]bool{}, map[string]bool{}
	var (
		enc commitEnc
		run []byte
	)
	for _, tr := range traces {
		// One trace never spans blocks: seal the current block first if
		// this trace would push it past the target.
		if block.Len() > 0 && block.Len() >= blockTarget {
			if err := flushBlock(); err != nil {
				return nil, abort(err)
			}
		}
		for _, n := range tr.nodes {
			enc.record(entry{op: opPutNode, node: n})
			bid.add(n.ID)
			classKeys[n.Class.String()], typeKeys[n.Type] = true, true
		}
		for _, e := range tr.edges {
			enc.record(entry{op: opPutEdge, edge: e})
			bid.add(e.ID)
			classKeys[provenance.ClassRelation.String()], typeKeys[e.Type] = true, true
		}
		run = enc.payload(append(run[:0], 0, 0, 0, 0))
		enc.reset()
		binary.LittleEndian.PutUint32(run, uint32(len(run)-4))
		ft.Traces = append(ft.Traces, segTrace{
			App: tr.app, Blk: len(ft.Blocks), Off: block.Len(), Ver: tr.ver, Last: tr.last, Rows: tr.records(),
		})
		block.Write(run)
		bt.add(tr.app)
		if ft.MinApp == "" {
			ft.MinApp, ft.MinSeq = tr.app, tr.last
		}
		ft.MaxApp = tr.app
		if tr.last < ft.MinSeq {
			ft.MinSeq = tr.last
		}
		if tr.last > ft.MaxSeq {
			ft.MaxSeq = tr.last
		}
	}
	if err := flushBlock(); err != nil {
		return nil, abort(err)
	}

	bc, bty := newBloom(len(classKeys)), newBloom(len(typeKeys))
	for c := range classKeys {
		bc.add(c)
	}
	for t := range typeKeys {
		bty.add(t)
	}
	ft.BloomTrace, ft.BloomClass, ft.BloomType = bt.marshal(), bc.marshal(), bty.marshal()
	ft.BloomID = bid.marshal()

	footerOff := off
	if _, err := writeSegFrame(f, appendFooter(nil, ft)); err != nil {
		return nil, abort(err)
	}
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(footerOff))
	copy(trailer[8:], segEndMagic)
	if _, err := f.Write(trailer[:]); err != nil {
		return nil, abort(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path)
		return nil, err
	}
	return ft, nil
}

// writeSegFrame writes one CRC frame and returns its on-disk length.
func writeSegFrame(w io.Writer, payload []byte) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(8 + len(payload)), nil
}

// openSegment validates the file at path and returns its resident handle.
// Any structural damage — short file, bad magic, torn trailer, footer CRC
// mismatch — is an error; Open deletes such a file if it was sealed since
// the last rewrite (the log still holds its rows) and fails on it
// otherwise. An intact footer of an unknown format is errSegFormat, which
// fails Open either way.
func openSegment(fsys FS, path string, id uint64) (*segment, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+16 {
		return nil, fmt.Errorf("store: segment %s truncated (%d bytes)", path, size)
	}
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, err
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("store: %s is not a segment (bad magic)", path)
	}
	var trailer [16]byte
	if _, err := f.Seek(size-16, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != segEndMagic {
		return nil, fmt.Errorf("store: segment %s has a torn trailer", path)
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < int64(len(segMagic)) || footerOff >= size-16 {
		return nil, fmt.Errorf("store: segment %s footer offset %d out of range", path, footerOff)
	}
	ft, err := readSegFooter(f, footerOff, size-16-footerOff)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}

	s := &segment{
		id: id, path: path, fs: fsys,
		sealSeq: ft.SealSeq, minSeq: ft.MinSeq, maxSeq: ft.MaxSeq,
		minApp: ft.MinApp, maxApp: ft.MaxApp,
		blocks: ft.Blocks, traces: ft.Traces, size: size,
		indexBytes: int64(len(ft.Blocks)) * int64(unsafe.Sizeof(segBlock{})),
	}
	for _, tr := range ft.Traces {
		s.nRows += tr.Rows
		s.indexBytes += int64(unsafe.Sizeof(tr)) + int64(len(tr.App))
	}
	if s.bloomTrace, err = unmarshalBloom(ft.BloomTrace); err != nil {
		return nil, fmt.Errorf("store: segment %s trace bloom: %w", path, err)
	}
	if s.bloomClass, err = unmarshalBloom(ft.BloomClass); err != nil {
		return nil, fmt.Errorf("store: segment %s class bloom: %w", path, err)
	}
	if s.bloomType, err = unmarshalBloom(ft.BloomType); err != nil {
		return nil, fmt.Errorf("store: segment %s type bloom: %w", path, err)
	}
	if s.bloomID, err = unmarshalBloom(ft.BloomID); err != nil {
		return nil, fmt.Errorf("store: segment %s row-ID bloom: %w", path, err)
	}
	return s, nil
}

// readSegFooter reads and validates the footer frame of length n at off;
// the footer runs from its offset up to the trailer.
func readSegFooter(f File, off, n int64) (*segFooter, error) {
	payload, err := readSegFrameAt(f, off, n)
	if err != nil {
		return nil, err
	}
	return decodeSegFooter(payload)
}

// decodeSegFooter decodes a footer frame's payload, binary or format-2
// JSON, and validates the index it holds: trace IDs strictly sorted, and
// every trace's block and run offset inside the block table.
func decodeSegFooter(payload []byte) (*segFooter, error) {
	var ft *segFooter
	if payload[0] == '{' {
		ft = new(segFooter)
		if err := json.Unmarshal(payload, ft); err != nil {
			return nil, fmt.Errorf("footer JSON: %v", err)
		}
		if ft.Format != segFormatJSON {
			return nil, fmt.Errorf("%w %d", errSegFormat, ft.Format)
		}
	} else {
		var err error
		if ft, err = decodeFooter(payload); err != nil {
			return nil, err
		}
	}
	for i := 1; i < len(ft.Traces); i++ {
		if ft.Traces[i].App <= ft.Traces[i-1].App {
			return nil, fmt.Errorf("trace index not strictly sorted")
		}
	}
	for _, tr := range ft.Traces {
		if tr.Blk < 0 || tr.Blk >= len(ft.Blocks) {
			return nil, fmt.Errorf("trace %s references block %d of %d", tr.App, tr.Blk, len(ft.Blocks))
		}
		// Segments arrive over the network too (ImportSegment): an offset
		// must leave room for a run's length prefix inside its block.
		if tr.Rows < 0 || tr.Off < 0 || int64(tr.Off)+4 > ft.Blocks[tr.Blk].Len-8 {
			return nil, fmt.Errorf("trace %s has a run of %d records at offset %d, outside block %d", tr.App, tr.Rows, tr.Off, tr.Blk)
		}
	}
	return ft, nil
}

// appendFooter appends ft's binary footer (format 3, see the layout above)
// to dst.
func appendFooter(dst []byte, ft *segFooter) []byte {
	dst = binary.AppendUvarint(dst, segFormat)
	for _, v := range [...]uint64{ft.SealSeq, ft.MinSeq, ft.MaxSeq} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = appendStr(appendStr(dst, ft.MinApp), ft.MaxApp)
	dst = binary.AppendUvarint(dst, uint64(len(ft.Blocks)))
	for _, b := range ft.Blocks {
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(b.Off)), uint64(b.Len))
	}
	dst = binary.AppendUvarint(dst, uint64(len(ft.Traces)))
	ids := 0
	for _, tr := range ft.Traces {
		ids += len(tr.App)
	}
	dst = binary.AppendUvarint(dst, uint64(ids))
	for _, tr := range ft.Traces {
		dst = append(dst, tr.App...)
	}
	for _, tr := range ft.Traces {
		for _, v := range [...]uint64{uint64(len(tr.App)), uint64(tr.Blk), uint64(tr.Off), tr.Ver, tr.Last, uint64(tr.Rows)} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	for _, b := range [...][]byte{ft.BloomTrace, ft.BloomClass, ft.BloomType, ft.BloomID} {
		dst = append(binary.AppendUvarint(dst, uint64(len(b))), b...)
	}
	return dst
}

// decodeFooter decodes a binary footer in one pass. The block table and
// the trace index are one exact-size allocation each and the trace IDs
// one string, which every entry slices; the blooms stay slices of p. A
// count is checked against the bytes left before it sizes anything, so a
// claimed count never allocates memory the payload's bytes do not hold.
// A footer of another format is errSegFormat; one that does not parse
// exactly, to its last byte, is an error.
func decodeFooter(p []byte) (*segFooter, error) {
	c := frameCursor{p: p}
	if format := c.uvarint(); format != segFormat {
		if c.bad {
			return nil, errors.New("footer format does not parse")
		}
		return nil, fmt.Errorf("%w %d", errSegFormat, format)
	}
	ft := &segFooter{Format: segFormat, SealSeq: c.uvarint(), MinSeq: c.uvarint(), MaxSeq: c.uvarint()}
	ft.MinApp, ft.MaxApp = string(c.bytes()), string(c.bytes())
	// A block entry takes at least 2 bytes, a trace entry 6.
	if nb := c.uvarint(); nb > uint64(c.left())/2 {
		c.fail()
	} else {
		ft.Blocks = make([]segBlock, nb)
		for i := range ft.Blocks {
			ft.Blocks[i] = segBlock{Off: int64(c.int()), Len: int64(c.int())}
		}
	}
	nt := c.uvarint()
	ids := c.bytes()
	if nt > uint64(c.left())/6 {
		c.fail()
	} else {
		ft.Traces = make([]segTrace, nt)
		all := string(ids)
		for i := range ft.Traces {
			n := c.uvarint()
			if n > uint64(len(all)) {
				c.fail()
				break
			}
			ft.Traces[i] = segTrace{App: all[:n], Blk: c.int(), Off: c.int(), Ver: c.uvarint(), Last: c.uvarint(), Rows: c.int()}
			all = all[n:]
		}
		if all != "" {
			c.fail()
		}
	}
	ft.BloomTrace, ft.BloomClass, ft.BloomType, ft.BloomID = c.bytes(), c.bytes(), c.bytes(), c.bytes()
	if c.bad || c.left() != 0 {
		return nil, errors.New("malformed footer")
	}
	return ft, nil
}

// readSegFrameAt reads one CRC frame of on-disk length wantLen at off,
// header and payload in one read. wantLen is what the segment's index
// says: the block table for a data block, the trailer's offset for the
// footer. A header that disagrees with it means the index and the data
// disagree, and the frame is rejected.
func readSegFrameAt(f File, off, wantLen int64) ([]byte, error) {
	if wantLen < 8 || wantLen > 8+maxFrame {
		return nil, fmt.Errorf("frame at %d: index says %d bytes", off, wantLen)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, wantLen)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("frame at %d: %v", off, err)
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("frame at %d has length %d", off, n)
	}
	if int64(8+n) != wantLen {
		return nil, fmt.Errorf("frame at %d is %d bytes, index says %d", off, 8+n, wantLen)
	}
	if crc32.ChecksumIEEE(buf[8:]) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("frame at %d fails CRC", off)
	}
	return buf[8:], nil
}

// readBlock reads data block blk and returns its CRC-verified payload.
func (s *segment) readBlock(blk int) ([]byte, error) {
	if blk < 0 || blk >= len(s.blocks) {
		return nil, fmt.Errorf("no such block (the segment has %d)", len(s.blocks))
	}
	f, err := s.fs.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readSegFrameAt(f, s.blocks[blk].Off, s.blocks[blk].Len)
}

// findTrace binary-searches the trace index.
func (s *segment) findTrace(app string) (segTrace, bool) {
	i := sort.Search(len(s.traces), func(i int) bool { return s.traces[i].App >= app })
	if i < len(s.traces) && s.traces[i].App == app {
		return s.traces[i], true
	}
	return segTrace{}, false
}

// records decodes the sealed copy tr out of its block's payload p into
// memory of its own (decodeRun's), so the records never pin the block and
// the cache may drop it. The decoded run must hold exactly the records the
// index counts, all of trace tr.App, each a valid node or edge put;
// anything else in a payload that passed its CRC is an error, never a
// short or foreign trace.
func (s *segment) records(p []byte, tr segTrace, names nameTable) (sealedTrace, error) {
	st := sealedTrace{app: tr.App, ver: tr.Ver, last: tr.Last}
	run, err := lenPrefixed(p, tr.Off)
	if err != nil || tr.Rows == 0 {
		return st, err
	}
	if run[0] != byte(opCommit) {
		return st, fmt.Errorf("trace %s's run is not a commit payload", tr.App)
	}
	nodes, edges, err := decodeRun(run[1:], tr, names)
	for i := 0; err == nil && i < len(nodes); i++ {
		err = nodes[i].Validate()
	}
	for i := 0; err == nil && i < len(edges); i++ {
		err = edges[i].Validate()
	}
	if err != nil {
		return st, err
	}
	st.nodes, st.edges = nodes, edges
	return st, nil
}

// owner returns the trace of block blk, whose payload is p, that holds the
// record id. A run is decoded only if it holds the ID's bytes as the
// commit codec writes them: the part after the prefix it shares with the
// trace ID.
func (s *segment) owner(p []byte, blk int, id string, names nameTable) (string, bool, error) {
	for _, tr := range s.traces {
		if tr.Blk != blk {
			continue
		}
		run, err := lenPrefixed(p, tr.Off)
		if err != nil {
			return "", false, err
		}
		if !bytes.Contains(run, []byte(id[sharedPrefix(tr.App, id):])) {
			continue
		}
		st, err := s.records(p, tr, names)
		if err != nil {
			return "", false, err
		}
		if slices.ContainsFunc(st.nodes, func(n *provenance.Node) bool { return n.ID == id }) ||
			slices.ContainsFunc(st.edges, func(e *provenance.Edge) bool { return e.ID == id }) {
			return tr.App, true, nil
		}
	}
	return "", false, nil
}

// lenPrefixed returns the (uint32 len, bytes) trace run at p[off:] in
// place.
func lenPrefixed(p []byte, off int) ([]byte, error) {
	if off < 0 || len(p)-off < 4 {
		return nil, errors.New("truncated length prefix")
	}
	n := binary.LittleEndian.Uint32(p[off:])
	if n == 0 || uint64(n) > uint64(len(p)-off-4) {
		return nil, errors.New("truncated item")
	}
	return p[off+4 : off+4+int(n)], nil
}
