package main

import (
	"net/http"
	"strings"
	"sync/atomic"
)

// httpStats counts what one wrapped handler answered.
type httpStats struct {
	eventReqBytes        atomic.Int64
	reads, readRespBytes atomic.Int64
	status429, status5xx atomic.Int64
}

// opOf recovers the benchmark's operation ID from a request: the
// Ingest-Key header on writes (the router derives "key#shard" part keys,
// which share the prefix) or the _b query nonce on reads. Requests the
// benchmark did not tag (ack polls) return "".
func opOf(r *http.Request) string {
	if k := r.Header.Get("Ingest-Key"); k != "" {
		if i := strings.IndexByte(k, '#'); i >= 0 {
			k = k[:i]
		}
		return k
	}
	return r.URL.Query().Get("_b")
}

type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// spanHandler wraps an http.Handler with a span per tagged request and
// status/byte counters. Spans are named layer+path ("cluster.router/events");
// parentLayer is the layer one hop up ("provbench.call" for the router,
// "cluster.router" for a shard), whose span for the same operation and
// path becomes the parent.
func spanHandler(h http.Handler, tr *Tracer, layer, parentLayer string, st *httpStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := opOf(r)
		if op == "" {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		sp := tr.begin(layer+r.URL.Path, op, parentLayer+r.URL.Path)
		h.ServeHTTP(sw, r)
		sp.end()
		if r.Method == http.MethodPost {
			st.eventReqBytes.Add(r.ContentLength)
		} else {
			st.reads.Add(1)
			st.readRespBytes.Add(sw.bytes)
		}
		switch {
		case sw.status == http.StatusTooManyRequests:
			st.status429.Add(1)
		case sw.status >= 500:
			st.status5xx.Add(1)
		}
	})
}
