package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/workload"
)

// startProvd spins a real provd HTTP server for the CLI to talk to.
func startProvd(t *testing.T) string {
	t.Helper()
	return startProvdWith(t, core.Config{})
}

func startProvdWith(t *testing.T, cfg core.Config) string {
	t.Helper()
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(sys, false))
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})
	return srv.URL
}

// pctl runs the CLI against the server and captures stdout.
func pctl(t *testing.T, url string, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append([]string{"-server", url}, args...), &out)
	return out.String(), err
}

func TestPctlEndToEnd(t *testing.T) {
	url := startProvd(t)

	out, err := pctl(t, url, "simulate", "-domain", "hiring", "-traces", "20",
		"-violations", "0.4", "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ingested") || !strings.Contains(out, "20 traces") {
		t.Fatalf("simulate output: %s", out)
	}

	out, err = pctl(t, url, "controls")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gm-approval", "four-eyes", "no-reject-proceed"} {
		if !strings.Contains(out, want) {
			t.Errorf("controls output missing %s:\n%s", want, out)
		}
	}

	out, err = pctl(t, url, "check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "80 outcomes") {
		t.Fatalf("check output: %s", out)
	}
	out, err = pctl(t, url, "check", "-failures")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, " satisfied") {
		t.Fatalf("failures filter leaked satisfied rows:\n%s", out)
	}

	out, err = pctl(t, url, "dashboard")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CONTROL") || !strings.Contains(out, "gm-approval") {
		t.Fatalf("dashboard output: %s", out)
	}

	out, err = pctl(t, url, "violations", "-n", "3")
	if err != nil {
		t.Fatal(err)
	}

	out, err = pctl(t, url, "rows", "-app", "hiring-000000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ps:jobRequisition") {
		t.Fatalf("rows output lacks Table-1 XML:\n%s", out)
	}

	out, err = pctl(t, url, "stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hiring") || !strings.Contains(out, `"seq":`) || strings.Contains(out, `"Seq":`) {
		t.Fatalf("stats output (want the domain and one top-level seq): %s", out)
	}
}

func TestPctlDeployAndRemove(t *testing.T) {
	url := startProvd(t)
	dir := t.TempDir()
	ruleFile := filepath.Join(dir, "rule.bal")
	rule := `
definitions
  set 'r' to a job requisition ;
if 'r' exists then the internal control is satisfied ;
`
	if err := os.WriteFile(ruleFile, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := pctl(t, url, "deploy", "-id", "cli-control", "-name", "From CLI", "-file", ruleFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deployed cli-control version 1") {
		t.Fatalf("deploy output: %s", out)
	}
	out, err = pctl(t, url, "controls")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cli-control") {
		t.Fatalf("controls output: %s", out)
	}
	out, err = pctl(t, url, "remove", "-id", "cli-control")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "removed cli-control") {
		t.Fatalf("remove output: %s", out)
	}
	// Bad rule file is rejected with the server's compile diagnostic.
	if err := os.WriteFile(ruleFile, []byte("if gibberish"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pctl(t, url, "deploy", "-id", "bad", "-file", ruleFile); err == nil {
		t.Fatal("bad rule deployed")
	}
}

func TestPctlErrors(t *testing.T) {
	url := startProvd(t)
	if _, err := pctl(t, url); err == nil {
		t.Error("missing command accepted")
	}
	if _, err := pctl(t, url, "frobnicate"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := pctl(t, url, "deploy", "-id", "x"); err == nil {
		t.Error("deploy without -file accepted")
	}
	if _, err := pctl(t, url, "rows"); err == nil {
		t.Error("rows without -app accepted")
	}
	if _, err := pctl(t, url, "remove"); err == nil {
		t.Error("remove without -id accepted")
	}
	if _, err := pctl(t, url, "simulate", "-domain", "nope"); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := pctl(t, "http://127.0.0.1:1", "stats"); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestPctlGraph(t *testing.T) {
	url := startProvd(t)
	if _, err := pctl(t, url, "simulate", "-domain", "hiring", "-traces", "2", "-seed", "4"); err != nil {
		t.Fatal(err)
	}
	out, err := pctl(t, url, "graph", "-app", "hiring-000000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "node data") || !strings.Contains(out, "edge ") {
		t.Fatalf("graph output:\n%s", out)
	}
	out, err = pctl(t, url, "graph", "-app", "hiring-000000", "-dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph provenance") {
		t.Fatalf("dot output:\n%s", out)
	}
	if _, err := pctl(t, url, "graph"); err == nil {
		t.Error("graph without -app accepted")
	}
}

func TestPctlReport(t *testing.T) {
	url := startProvd(t)
	if _, err := pctl(t, url, "simulate", "-domain", "hiring", "-traces", "10",
		"-violations", "0.5", "-seed", "6"); err != nil {
		t.Fatal(err)
	}
	out, err := pctl(t, url, "report", "-findings", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"COMPLIANCE AUDIT REPORT", "### control", "evidence"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestPctlSegments lists the cold tier: empty on a fresh in-memory
// store, and one sealed segment after a durable store demotes traces.
func TestPctlSegments(t *testing.T) {
	url := startProvd(t)
	out, err := pctl(t, url, "segments")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no sealed segments") {
		t.Fatalf("segments on empty store: %s", out)
	}

	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(d, core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(sys, false))
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})
	if _, err := pctl(t, srv.URL, "simulate", "-domain", "hiring", "-traces", "3", "-seed", "9"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store.DemoteTraces("hiring-000000", "hiring-000001"); err != nil {
		t.Fatal(err)
	}
	out, err = pctl(t, srv.URL, "segments")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 segments, 2 sealed traces") ||
		!strings.Contains(out, "hiring-000000..hiring-000001") ||
		!strings.Contains(out, "PINNED") || !strings.Contains(out, "0 segments pinned") || !regexp.MustCompile(`(?m)^1\s+\d+\s+\d+\s+2\s`).MatchString(out) {
		t.Fatalf("segments output:\n%s", out)
	}
}

// TestPctlSimulateAsync ships the simulation through the spooling
// recorder: admission, retries-until-applied, flush-on-close.
func TestPctlSimulateAsync(t *testing.T) {
	url := startProvd(t)
	out, err := pctl(t, url, "simulate", "-domain", "hiring", "-traces", "10",
		"-seed", "7", "-async", "-batch", "16")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shipped") || !strings.Contains(out, "10 traces") {
		t.Fatalf("async simulate output: %s", out)
	}
	// The events really landed: all traces are checkable.
	out, err = pctl(t, url, "check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "40 outcomes") {
		t.Fatalf("check after async simulate: %s", out)
	}
}

// TestPctlSimulateOnePost: a plain simulate posts its batch once and
// returns once it is applied, on a gateway node (Prefer: wait) and on a
// -sync-ingest node alike, and a rejected event fails the command.
func TestPctlSimulateOnePost(t *testing.T) {
	for name, cfg := range map[string]core.Config{"gateway": {}, "sync-ingest": {DisableAsyncIngest: true}} {
		t.Run(name, func(t *testing.T) {
			url := startProvdWith(t, cfg)
			if _, err := pctl(t, url, "simulate", "-traces", "6", "-seed", "2"); err != nil {
				t.Fatal(err)
			}
			out, err := pctl(t, url, "check")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "24 outcomes") {
				t.Fatalf("check right after simulate: %s", out)
			}
			// Another seed reuses the trace IDs with other content: conflicts.
			_, err = pctl(t, url, "simulate", "-traces", "6", "-seed", "3")
			if err == nil || !strings.Contains(err.Error(), "events rejected") {
				t.Fatalf("conflicting simulate = %v, want the rejected events reported", err)
			}
		})
	}
}

// TestPctlIngestNDJSON streams newline-delimited events from stdin
// through the recorder, including a rejected event surfaced by index.
func TestPctlIngestNDJSON(t *testing.T) {
	url := startProvd(t)
	ndjson := `
{"source":"lombardi","type":"requisition.submitted","appId":"T1","payload":{"recordId":"N1","req":"REQ-1"}}

{"source":"mail","type":"approval.recorded","appId":"T1","payload":{"recordId":"N2","req":"REQ-1","approved":"true"}}
`
	var out strings.Builder
	err := runIO([]string{"-server", url, "ingest", "-batch", "4"},
		strings.NewReader(ndjson), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ingested 2 events") {
		t.Fatalf("ingest output: %s", out.String())
	}

	// A rejected event (missing required field) fails the run and names
	// the event.
	bad := `{"source":"lombardi","type":"requisition.submitted","appId":"T2","payload":{"recordId":"N9"}}`
	out.Reset()
	err = runIO([]string{"-server", url, "ingest"}, strings.NewReader(bad), &out)
	if err == nil {
		t.Fatalf("rejected event not reported: %s", out.String())
	}
	if !strings.Contains(out.String(), "event rejected") {
		t.Fatalf("ingest output lacks rejection: %s", out.String())
	}

	// Malformed NDJSON is a line-numbered error.
	err = runIO([]string{"-server", url, "ingest"}, strings.NewReader("not json\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("malformed line error = %v", err)
	}
}

// TestPctlTenants drives the tenant control plane end to end: create
// with a quota, list with stats, retune, and tenant-scoped reads via the
// global -tenant flag.
func TestPctlTenants(t *testing.T) {
	url := startProvd(t)

	out, err := pctl(t, url, "tenants", "create", "-id", "acme", "-name", "Acme",
		"-weight", "3", "-rate", "50", "-burst", "100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tenant acme") || !strings.Contains(out, "weight 3") {
		t.Fatalf("create output: %s", out)
	}

	out, err = pctl(t, url, "tenants")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TENANT") || !strings.Contains(out, "acme") ||
		!strings.Contains(out, "default") || !strings.Contains(out, "50/s burst 100") {
		t.Fatalf("tenants table: %s", out)
	}

	if out, err = pctl(t, url, "tenants", "quota", "-id", "acme", "-rate", "80"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "80/s") {
		t.Fatalf("quota output: %s", out)
	}

	// Scoped simulate + check: the tenant sees only its own traces.
	if _, err = pctl(t, url, "tenants", "quota", "-id", "acme", "-rate", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err = pctl(t, url, "simulate", "-traces", "5", "-seed", "3"); err != nil {
		t.Fatal(err)
	}
	out, err = pctl(t, url, "-tenant", "acme", "check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 outcomes") {
		t.Fatalf("acme sees the default tenant's outcomes:\n%s", out)
	}
}

// TestPctlShadowPromote walks the rollout flow: deploy, attach a shadow
// candidate, promote it, and roll back a second candidate.
func TestPctlShadowPromote(t *testing.T) {
	url := startProvd(t)
	dir := t.TempDir()
	rule := filepath.Join(dir, "rule.bal")
	text := `
definitions
  set 'the request' to a job requisition ;
if
  the approval of 'the request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
  add alert "no approval on record" ;
`
	if err := os.WriteFile(rule, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	if out, err := pctl(t, url, "deploy", "-id", "roll-1", "-name", "Rollout", "-file", rule); err != nil || !strings.Contains(out, "version 1") {
		t.Fatalf("deploy: %v %s", err, out)
	}
	out, err := pctl(t, url, "deploy", "-id", "roll-1", "-file", rule, "-shadow")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shadow candidate v2") {
		t.Fatalf("shadow deploy output: %s", out)
	}
	if out, err = pctl(t, url, "controls"); err != nil || !strings.Contains(out, "[shadow v2]") {
		t.Fatalf("controls with shadow: %v %s", err, out)
	}
	if out, err = pctl(t, url, "control", "promote", "-id", "roll-1"); err != nil || !strings.Contains(out, "version 2") {
		t.Fatalf("promote: %v %s", err, out)
	}
	// Attach and discard another candidate.
	if _, err = pctl(t, url, "deploy", "-id", "roll-1", "-file", rule, "-shadow"); err != nil {
		t.Fatal(err)
	}
	if out, err = pctl(t, url, "control", "rollback", "-id", "roll-1"); err != nil || !strings.Contains(out, "rolled back") {
		t.Fatalf("rollback: %v %s", err, out)
	}
	// Nothing left to promote: the server's 422 surfaces as an error.
	if _, err = pctl(t, url, "control", "promote", "-id", "roll-1"); err == nil {
		t.Fatal("promote with no candidate succeeded")
	}
}

// TestPctlGivesUpOnSilentServer: a server that accepts the connection and
// never answers used to hang pctl forever (http.DefaultClient has no
// timeout). Every command now goes through the shared API client, whose
// transport is bounded by api.Timeout; the test substitutes a shorter one.
func TestPctlGivesUpOnSilentServer(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release) // runs first: Close waits for in-flight handlers

	var out strings.Builder
	c := &client{out: &out, api: api.Client{Base: srv.URL, HTTP: &http.Client{Timeout: 100 * time.Millisecond}}}
	for name, cmd := range map[string]func(context.Context, []string) error{
		"dashboard": c.cmdDashboard, // JSON answer
		"report":    c.cmdReport,    // streamed text answer
	} {
		done := make(chan error, 1)
		go func() { done <- cmd(context.Background(), nil) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: succeeded against a server that never answers", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: still waiting 2s after a 100ms timeout", name)
		}
	}
}
