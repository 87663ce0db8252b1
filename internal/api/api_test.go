package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestDefaultClientIsBounded(t *testing.T) {
	if defaultHTTP.Timeout != Timeout || Timeout <= 0 {
		t.Fatalf("default client timeout = %v, want %v", defaultHTTP.Timeout, Timeout)
	}
}

// TestErrorRoundTrip: what Error.Write puts on the wire, DecodeError
// reads back — the server and every client share the one envelope.
func TestErrorRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		in         Error
		wantHeader string
		wantBody   string
		wantRetry  time.Duration
	}{
		{"bare", Error{Status: 404, Message: "unknown ack token"}, "", `{"error":"unknown ack token"}`, 0},
		{"overload", Error{Status: 429, Message: "queue full", RetryAfter: 1500 * time.Millisecond, RetryAfterMs: 1500, Tenant: "acme"},
			"2", `{"error":"queue full","retryAfterMs":1500,"tenant":"acme"}`, 2 * time.Second},
		{"draining", Error{Status: 503, Message: "draining", RetryAfter: time.Second}, "1", `{"error":"draining"}`, time.Second},
		{"rejected", Error{Status: 422, Message: "1 of 2 events failed", EventErrors: []EventError{{Index: 1, Err: "bad"}}},
			"", `{"error":"1 of 2 events failed","eventErrors":[{"index":1,"error":"bad"}]}`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.in.Write(rec)
			if rec.Code != tc.in.Status || rec.Header().Get("Retry-After") != tc.wantHeader {
				t.Fatalf("status %d Retry-After %q, want %d %q", rec.Code, rec.Header().Get("Retry-After"), tc.in.Status, tc.wantHeader)
			}
			var got, want any
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(tc.wantBody), &want); err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
				t.Fatalf("body %s, want %s", g, w)
			}
			back := DecodeError(rec.Result(), rec.Body.Bytes())
			if back.Status != tc.in.Status || back.Message != tc.in.Message || back.RetryAfter != tc.wantRetry ||
				back.Tenant != tc.in.Tenant || len(back.EventErrors) != len(tc.in.EventErrors) {
				t.Fatalf("decoded %+v from %+v", back, tc.in)
			}
		})
	}
	// Millisecond hint only (no header), and a body that is not the envelope.
	resp := &http.Response{StatusCode: 429, Header: http.Header{}}
	if e := DecodeError(resp, []byte(`{"error":"x","retryAfterMs":250}`)); e.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter from retryAfterMs = %v", e.RetryAfter)
	}
	resp.StatusCode = 502
	if e := DecodeError(resp, []byte("<html>bad gateway</html>")); e.Error() != "server returned 502 Bad Gateway" {
		t.Fatalf("non-envelope error = %q", e.Error())
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestClientJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/echo":
			var in map[string]string
			if r.Header.Get("Content-Type") != "application/json" || json.NewDecoder(r.Body).Decode(&in) != nil {
				WriteError(w, http.StatusBadRequest, errors.New("want a JSON body"))
				return
			}
			in["tenant"] = r.Header.Get("X-Tenant")
			WriteJSON(w, http.StatusOK, in)
		default:
			WriteError(w, http.StatusNotFound, errors.New("no such thing"))
		}
	}))
	defer srv.Close()
	c := Client{Base: srv.URL, Tenant: "acme"}

	var out map[string]string
	if err := c.JSON(context.Background(), http.MethodPost, "/echo", map[string]string{"k": "v"}, &out); err != nil {
		t.Fatal(err)
	}
	if out["k"] != "v" || out["tenant"] != "acme" {
		t.Fatalf("echo = %v", out)
	}
	err := c.JSON(context.Background(), http.MethodGet, "/missing", nil, nil)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Error() != "server: no such thing" {
		t.Fatalf("error = %v", err)
	}
}
