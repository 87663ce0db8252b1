package main

import (
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// deviceStats counts what the store asked of its filesystem. Times are
// wall time spent inside the calls, which on slowfs includes the modeled
// device cost.
type deviceStats struct {
	Writes, WriteBytes int64
	Syncs              int64
	Reads, ReadBytes   int64
	Busy               time.Duration
	// CompactBytes are bytes written to anything but the live log: the
	// compaction scratch log, sealed segments and segment rewrites.
	CompactBytes int64
}

// countFS is the benchmark's store.FS seam: it passes every call through
// to inner unchanged, counts it, and records a span for it. It sits
// outside slowfs, so a sync's span covers the modeled device time.
type countFS struct {
	inner store.FS
	tr    *Tracer

	writes, writeBytes atomic.Int64
	syncs              atomic.Int64
	reads, readBytes   atomic.Int64
	busyNS             atomic.Int64
	compactBytes       atomic.Int64
}

func newCountFS(inner store.FS, tr *Tracer) *countFS {
	if inner == nil {
		inner = store.OSFS{}
	}
	return &countFS{inner: inner, tr: tr}
}

func (c *countFS) stats() deviceStats {
	return deviceStats{
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		Syncs: c.syncs.Load(),
		Reads: c.reads.Load(), ReadBytes: c.readBytes.Load(),
		Busy:         time.Duration(c.busyNS.Load()),
		CompactBytes: c.compactBytes.Load(),
	}
}

// timed runs fn inside a span and adds its duration to the busy time.
func (c *countFS) timed(name string, fn func()) {
	sp := c.tr.begin(name, "", "")
	t0 := time.Now()
	fn()
	c.busyNS.Add(int64(time.Since(t0)))
	sp.end()
}

// liveLog reports whether name is the append log (main or side), as
// opposed to the files compaction and demotion write.
func liveLog(name string) bool {
	return strings.HasSuffix(name, "provenance.log") || strings.Contains(name, "provenance.log.side.")
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, live: liveLog(name)}, nil
}

func (c *countFS) Open(name string) (store.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, live: liveLog(name)}, nil
}

func (c *countFS) Rename(oldpath, newpath string) (err error) {
	c.timed("store.fs.rename", func() { err = c.inner.Rename(oldpath, newpath) })
	return err
}

func (c *countFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

func (c *countFS) ReadDir(dir string) ([]string, error) { return c.inner.ReadDir(dir) }

func (c *countFS) SyncDir(dir string) (err error) {
	c.syncs.Add(1)
	c.timed("store.fs.sync", func() { err = c.inner.SyncDir(dir) })
	return err
}

type countFile struct {
	store.File
	fs   *countFS
	live bool
}

func (f *countFile) Write(p []byte) (n int, err error) {
	f.fs.timed("store.fs.write", func() { n, err = f.File.Write(p) })
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	if !f.live {
		f.fs.compactBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Read(p []byte) (n int, err error) {
	f.fs.timed("store.fs.read", func() { n, err = f.File.Read(p) })
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() (err error) {
	f.fs.syncs.Add(1)
	f.fs.timed("store.fs.sync", func() { err = f.File.Sync() })
	return err
}
