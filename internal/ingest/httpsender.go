package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/events"
)

// HTTPSender delivers recorder batches to a provd (or provrouter) /events
// endpoint: 202 with an ack, 429 with Retry-After, 503 while draining,
// 413 for a batch no wait can admit.
// Every request carries "Prefer: wait", so an admitted batch is answered
// once it is applied instead of being polled for.
type HTTPSender struct {
	// API reaches the server: base URL, tenant scope, HTTP client.
	API api.Client
}

// Send posts one keyed batch. The idempotency key travels in the
// Ingest-Key header; redelivery with the same key is safe server-side.
func (h *HTTPSender) Send(key string, evs []events.AppEvent) (SendResult, error) {
	body, err := json.Marshal(evs)
	if err != nil {
		return SendResult{}, err
	}
	hdr := api.JSONHeader()
	api.SetPreferWait(hdr)
	if key != "" {
		hdr.Set("Ingest-Key", key)
	}
	// The Sender interface carries no context; api.Timeout bounds the call.
	resp, data, err := h.API.Fetch(context.TODO(), http.MethodPost, "/events", hdr, bytes.NewReader(body), api.MaxEventBody)
	if err != nil {
		return SendResult{}, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var ack AckStatus
		if err := json.Unmarshal(data, &ack); err != nil {
			return SendResult{}, fmt.Errorf("ingest: bad ack: %v", err)
		}
		st := StatePending
		if ack.State == StateApplied {
			st = StateApplied
		}
		return SendResult{State: st, Token: ack.Token, EventErrors: ack.EventErrors}, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return SendResult{Overloaded: true, RetryAfter: api.DecodeError(resp, data).RetryAfter}, nil
	case http.StatusRequestEntityTooLarge:
		return SendResult{}, api.DecodeError(resp, data) // see isTooLarge
	default:
		return SendResult{}, fmt.Errorf("ingest: server %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
}

// isTooLarge reports whether a Send error is the server's 413: the batch
// exceeds a limit no wait lifts, so sending it again fails the same way.
func isTooLarge(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Status == http.StatusRequestEntityTooLarge
}
