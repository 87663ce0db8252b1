package tenant

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestQualifySplit(t *testing.T) {
	cases := []struct {
		tenant, app, want string
	}{
		{"default", "JR-1", "JR-1"},
		{"", "JR-1", "JR-1"},
		{"acme", "JR-1", "acme::JR-1"},
		{"acme", "", ""},
	}
	for _, c := range cases {
		if got := Qualify(c.tenant, c.app); got != c.want {
			t.Errorf("Qualify(%q,%q) = %q, want %q", c.tenant, c.app, got, c.want)
		}
	}
	if tn, app := Split("acme::JR-1"); tn != "acme" || app != "JR-1" {
		t.Errorf("Split = %q,%q", tn, app)
	}
	if tn, app := Split("JR-1"); tn != DefaultID || app != "JR-1" {
		t.Errorf("Split unqualified = %q,%q", tn, app)
	}
	// A separator at position 0 is not a namespace.
	if tn, _ := Split("::x"); tn != DefaultID {
		t.Errorf("Split(::x) tenant = %q", tn)
	}
	if Owner("beta::T-9") != "beta" || Owner("T-9") != DefaultID {
		t.Error("Owner mismatch")
	}
	for id, want := range map[string]bool{
		"acme": true, "a-1_b.c": true, "": false, "a::b": false, "a b": false, "a/b": false,
	} {
		if ValidID(id) != want {
			t.Errorf("ValidID(%q) != %v", id, want)
		}
	}
}

func TestRegistryDefaults(t *testing.T) {
	r := NewRegistry()
	if !r.Exists(DefaultID) {
		t.Fatal("default tenant missing")
	}
	if w := r.Weight(DefaultID); w != 1 {
		t.Fatalf("default weight = %d", w)
	}
	if w := r.Weight("ghost"); w != 1 {
		t.Fatalf("unknown weight = %d", w)
	}
	// Unlimited quota admits anything.
	if _, err := r.Admit(DefaultID, 1_000_000, 1<<30); err != nil {
		t.Fatal("default tenant should admit freely")
	}
}

func TestTokenBucket(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	if err := r.Create(Tenant{ID: "acme", Weight: 2, Quota: Quota{EventsPerSec: 10, Burst: 10}}); err != nil {
		t.Fatal(err)
	}
	// Full bucket: 10 admit, the 11th rejects with a positive hint.
	if _, err := r.Admit("acme", 10, 0); err != nil {
		t.Fatal("burst should admit")
	}
	ra, err := r.Admit("acme", 1, 0)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatal("empty bucket should reject")
	}
	if ra <= 0 {
		t.Fatalf("retryAfter = %v", ra)
	}
	// Refill after 500ms buys 5 events.
	now = now.Add(500 * time.Millisecond)
	if _, err := r.Admit("acme", 5, 0); err != nil {
		t.Fatal("refilled tokens should admit")
	}
	if _, err := r.Admit("acme", 1, 0); !errors.Is(err, ErrOverQuota) {
		t.Fatal("bucket drained again")
	}
	st := r.Stats()["acme"]
	if st.AdmittedEvents != 15 || st.RejectedEvents != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueuedBytes(t *testing.T) {
	r := NewRegistry()
	if err := r.Create(Tenant{ID: "acme", Quota: Quota{MaxQueuedBytes: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Admit("acme", 1, 80); err != nil {
		t.Fatal("under cap should admit")
	}
	if _, err := r.Admit("acme", 1, 30); !errors.Is(err, ErrOverQuota) {
		t.Fatal("over cap should reject")
	}
	r.Release("acme", 80)
	if _, err := r.Admit("acme", 1, 30); err != nil {
		t.Fatal("released bytes should admit")
	}
	if qb := r.Stats()["acme"].QueuedBytes; qb != 30 {
		t.Fatalf("queuedBytes = %d", qb)
	}
}

// TestAdmitLimitIsPermanent: a batch larger than the burst or the
// queued-byte cap is refused with a *LimitError naming the limit, on a
// full bucket and after any wait, never with the retryable ErrOverQuota.
func TestAdmitLimitIsPermanent(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	if err := r.Create(Tenant{ID: "acme", Quota: Quota{EventsPerSec: 1, Burst: 2, MaxQueuedBytes: 100}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n    int
		size int64
		want string
	}{
		{3, 10, "tenant acme: batch of 3 events exceeds the burst of 2 events"},
		{1, 101, "tenant acme: batch of 101 bytes exceeds the maxQueuedBytes of 100 bytes"},
	} {
		for i := 0; i < 2; i++ {
			ra, err := r.Admit("acme", tc.n, tc.size)
			var le *LimitError
			if !errors.As(err, &le) || errors.Is(err, ErrOverQuota) || ra != 0 {
				t.Fatalf("Admit(%d, %d) = %v, %v; want *LimitError", tc.n, tc.size, ra, err)
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q, want %q", err, tc.want)
			}
			now = now.Add(time.Hour) // no refill makes it fit
		}
	}
	if _, err := r.Admit("acme", 2, 100); err != nil {
		t.Fatalf("a batch at both limits must admit: %v", err)
	}
	if st := r.Stats()["acme"]; st.AdmittedEvents != 2 || st.RejectedEvents != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	r := NewRegistry()
	r.Create(Tenant{ID: "acme", Name: "Acme Corp", Weight: 4, Quota: Quota{EventsPerSec: 100, Burst: 50}})
	r.Create(Tenant{ID: "beta", Quota: Quota{MaxQueuedBytes: 1 << 20}})
	if err := r.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	n, err := r2.LoadFrom(path)
	if err != nil || n != 2 {
		t.Fatalf("LoadFrom = %d, %v", n, err)
	}
	got, ok := r2.Get("acme")
	if !ok || got.Weight != 4 || got.Quota.EventsPerSec != 100 || got.Name != "Acme Corp" {
		t.Fatalf("restored acme = %+v", got)
	}
	if _, err := NewRegistry().LoadFrom(filepath.Join(t.TempDir(), "missing.json")); err != nil {
		t.Fatalf("missing file should not error: %v", err)
	}
}

func TestCreateUpsert(t *testing.T) {
	r := NewRegistry()
	r.Create(Tenant{ID: "acme", Weight: 1, Quota: Quota{EventsPerSec: 5}})
	if err := r.Create(Tenant{ID: "acme", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get("acme")
	if got.Weight != 3 || got.Quota.EventsPerSec != 0 {
		t.Fatalf("upsert = %+v", got)
	}
	if err := r.Create(Tenant{ID: "bad::id"}); err == nil {
		t.Fatal("invalid ID should error")
	}
	if err := r.SetQuota("ghost", Quota{}); err == nil {
		t.Fatal("unknown tenant quota should error")
	}
}
