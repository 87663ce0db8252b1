package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/events"
	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/workload"
)

// client talks to a provd instance through the shared API client, so it
// speaks the same wire types as the server and gives up on a server that
// never answers after api.Timeout.
type client struct {
	api api.Client
	out io.Writer
	in  io.Reader // stdin for `ingest`; injectable for tests
}

// copyText streams a non-JSON answer (DOT, the audit report) to the output.
func (c *client) copyText(ctx context.Context, path string) error {
	resp, err := c.api.Do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, api.MaxEventBody)) // a short read still yields the status
		return api.DecodeError(resp, body)
	}
	_, err = io.Copy(c.out, resp.Body)
	return err
}

func (c *client) cmdSimulate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(c.out)
	domainName := fs.String("domain", "hiring", "hiring, procurement or claims")
	traces := fs.Int("traces", 100, "process instances to play")
	violations := fs.Float64("violations", 0.3, "seeded violation rate")
	visibility := fs.Float64("visibility", 1.0, "capture probability of unmanaged events")
	seed := fs.Int64("seed", 1, "simulation seed")
	async := fs.Bool("async", false, "ship through the spooling recorder (admission control, retries) instead of one synchronous POST")
	batch := fs.Int("batch", 128, "recorder batch size (with -async)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var d *workload.Domain
	var err error
	switch *domainName {
	case "hiring":
		d, err = workload.Hiring()
	case "procurement":
		d, err = workload.Procurement()
	case "claims":
		d, err = workload.Claims()
	default:
		return fmt.Errorf("unknown domain %q", *domainName)
	}
	if err != nil {
		return err
	}
	res := d.Simulate(workload.SimOptions{
		Seed: *seed, Traces: *traces,
		ViolationRate: *violations, Visibility: *visibility,
	})
	seededViolations := 0
	for _, tr := range res.Truth {
		if tr.Violation {
			seededViolations++
		}
	}
	if *async {
		if err := c.ship(res.Events, *batch); err != nil {
			return err
		}
	} else {
		if err := c.api.JSON(ctx, http.MethodPost, "/events?sync=1", res.Events, nil); err != nil {
			return err
		}
	}
	fmt.Fprintf(c.out, "ingested %d events from %d traces (%d seeded violations, %d events lost to visibility)\n",
		len(res.Events), *traces, seededViolations, res.Dropped)
	return nil
}

// ship delivers events through the spooling recorder: spool, batch,
// retry with backoff until every batch is applied.
func (c *client) ship(evs []events.AppEvent, batch int) error {
	rec := ingest.NewRecorder(ingest.RecorderConfig{MaxBatch: batch},
		&ingest.HTTPSender{API: c.api})
	for _, ev := range evs {
		for {
			err := rec.Record(ev)
			if err == nil {
				break
			}
			if !errors.Is(err, ingest.ErrSpoolFull) {
				rec.Close()
				return err
			}
			time.Sleep(5 * time.Millisecond) // spool full: natural backpressure
		}
	}
	if err := rec.Close(); err != nil {
		return err
	}
	st := rec.Stats()
	fmt.Fprintf(c.out, "shipped %d events in %d batches (%d retries: %d overloads, %d transport errors)\n",
		st.Enqueued, st.Applied, st.Retries, st.Overloads, st.TransportErrors)
	for _, ee := range rec.EventErrors() {
		fmt.Fprintf(c.out, "event rejected (batch index %d): %s\n", ee.Index, ee.Err)
	}
	return nil
}

// cmdIngest streams NDJSON application events from stdin through the
// spooling recorder — the shape a real recorder client integration takes.
func (c *client) cmdIngest(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	fs.SetOutput(c.out)
	batch := fs.Int("batch", 128, "recorder batch size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := c.in
	if in == nil {
		in = os.Stdin
	}
	rec := ingest.NewRecorder(ingest.RecorderConfig{MaxBatch: *batch},
		&ingest.HTTPSender{API: c.api})
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev events.AppEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			rec.Close()
			return fmt.Errorf("stdin line %d: %v", line, err)
		}
		for {
			err := rec.Record(ev)
			if err == nil {
				break
			}
			if !errors.Is(err, ingest.ErrSpoolFull) {
				rec.Close()
				return err
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := sc.Err(); err != nil {
		rec.Close()
		return err
	}
	if err := rec.Close(); err != nil {
		return err
	}
	st := rec.Stats()
	fmt.Fprintf(c.out, "ingested %d events in %d batches (%d retries: %d overloads, %d transport errors)\n",
		st.Enqueued, st.Applied, st.Retries, st.Overloads, st.TransportErrors)
	rejected := rec.EventErrors()
	for _, ee := range rejected {
		fmt.Fprintf(c.out, "event rejected (batch index %d): %s\n", ee.Index, ee.Err)
	}
	if len(rejected) > 0 {
		return fmt.Errorf("%d events rejected", len(rejected))
	}
	return nil
}

func (c *client) cmdControls(ctx context.Context, args []string) error {
	var list []api.Control
	if err := c.api.JSON(ctx, http.MethodGet, "/controls", nil, &list); err != nil {
		return err
	}
	for _, ctl := range list {
		shadow := ""
		if ctl.Shadow {
			shadow = fmt.Sprintf("  [shadow v%d]", ctl.ShadowVersion)
		}
		fmt.Fprintf(c.out, "%-24s v%d  %s%s\n", ctl.ID, ctl.Version, ctl.Name, shadow)
	}
	return nil
}

func (c *client) cmdDeploy(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ContinueOnError)
	fs.SetOutput(c.out)
	id := fs.String("id", "", "control ID")
	name := fs.String("name", "", "control title")
	file := fs.String("file", "", "rule text file")
	shadow := fs.Bool("shadow", false, "deploy as a shadow candidate next to the live version")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *file == "" {
		return fmt.Errorf("deploy requires -id and -file")
	}
	text, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	var got api.Control
	if err := c.api.JSON(ctx, http.MethodPost, "/controls", api.Control{ID: *id, Name: *name, Text: string(text), Shadow: *shadow}, &got); err != nil {
		return err
	}
	if *shadow {
		fmt.Fprintf(c.out, "shadow candidate v%d attached to %s (live v%d)\n", got.ShadowVersion, got.ID, got.Version)
		return nil
	}
	fmt.Fprintf(c.out, "deployed %s version %d\n", got.ID, got.Version)
	return nil
}

// cmdControl drives the shadow rollout actions:
//
//	pctl control promote -id my-control    swap the shadow candidate live
//	pctl control rollback -id my-control   discard the shadow candidate
func (c *client) cmdControl(ctx context.Context, args []string) error {
	if len(args) == 0 || (args[0] != "promote" && args[0] != "rollback") {
		return fmt.Errorf("control requires a verb: promote or rollback")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("control "+verb, flag.ContinueOnError)
	fs.SetOutput(c.out)
	id := fs.String("id", "", "control ID")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("control %s: -id required", verb)
	}
	var got api.Control
	if err := c.api.JSON(ctx, http.MethodPost, "/controls/"+url.PathEscape(*id)+"/"+verb, struct{}{}, &got); err != nil {
		return err
	}
	if verb == "promote" {
		fmt.Fprintf(c.out, "promoted %s to version %d\n", got.ID, got.Version)
	} else {
		fmt.Fprintf(c.out, "rolled back shadow candidate of %s (live v%d)\n", got.ID, got.Version)
	}
	return nil
}

// tenantWire mirrors the /tenants document: config plus the per-tenant
// admission counters.
type tenantWire struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Weight int    `json:"weight,omitempty"`
	Quota  struct {
		EventsPerSec   float64 `json:"eventsPerSec,omitempty"`
		Burst          int     `json:"burst,omitempty"`
		MaxQueuedBytes int64   `json:"maxQueuedBytes,omitempty"`
	} `json:"quota"`
	Stats struct {
		AdmittedEvents uint64 `json:"admittedEvents"`
		RejectedEvents uint64 `json:"rejectedEvents"`
		QueuedBytes    int64  `json:"queuedBytes"`
	} `json:"stats"`
}

// cmdTenants manages the multi-tenant control plane:
//
//	pctl tenants                                            list tenants with quotas and admission stats
//	pctl tenants create -id acme [-name "Acme"] [-weight 3] [-rate 100 -burst 200] [-max-queued-bytes N]
//	pctl tenants quota -id acme -rate 100 [-burst 200] [-max-queued-bytes N]
func (c *client) cmdTenants(ctx context.Context, args []string) error {
	if len(args) > 0 && (args[0] == "create" || args[0] == "quota") {
		verb, rest := args[0], args[1:]
		fs := flag.NewFlagSet("tenants "+verb, flag.ContinueOnError)
		fs.SetOutput(c.out)
		id := fs.String("id", "", "tenant ID")
		name := fs.String("name", "", "display name (create)")
		weight := fs.Int("weight", 0, "fair-share weight (0 = keep/default)")
		rate := fs.Float64("rate", 0, "admitted events/sec (0 = unlimited)")
		burst := fs.Int("burst", 0, "burst size in events (0 = rate-derived)")
		maxQueued := fs.Int64("max-queued-bytes", 0, "queued-bytes cap (0 = unlimited)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("tenants %s: -id required", verb)
		}
		body := map[string]any{"id": *id, "quota": map[string]any{
			"eventsPerSec": *rate, "burst": *burst, "maxQueuedBytes": *maxQueued,
		}}
		if verb == "create" {
			body["name"] = *name
			body["weight"] = *weight
		}
		var got tenantWire
		if err := c.api.JSON(ctx, http.MethodPost, "/tenants", body, &got); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "tenant %s: weight %d, quota %s\n", got.ID, got.Weight, quotaString(got))
		return nil
	}
	if len(args) > 0 && args[0] != "list" {
		return fmt.Errorf("unknown tenants verb %q (list, create, quota)", args[0])
	}
	var list []tenantWire
	if err := c.api.JSON(ctx, http.MethodGet, "/tenants", nil, &list); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-16s %-20s %6s %-26s %9s %9s %7s\n",
		"TENANT", "NAME", "WEIGHT", "QUOTA", "ADMITTED", "REJECTED", "QUEUED")
	for _, tn := range list {
		fmt.Fprintf(c.out, "%-16s %-20s %6d %-26s %9d %9d %7d\n",
			tn.ID, tn.Name, tn.Weight, quotaString(tn),
			tn.Stats.AdmittedEvents, tn.Stats.RejectedEvents, tn.Stats.QueuedBytes)
	}
	return nil
}

// quotaString renders a tenant's quota compactly for the table.
func quotaString(tn tenantWire) string {
	q := tn.Quota
	if q.EventsPerSec == 0 && q.MaxQueuedBytes == 0 {
		return "unlimited"
	}
	s := ""
	if q.EventsPerSec > 0 {
		s = fmt.Sprintf("%g/s burst %d", q.EventsPerSec, q.Burst)
	}
	if q.MaxQueuedBytes > 0 {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%dB queued", q.MaxQueuedBytes)
	}
	return s
}

func (c *client) cmdRemove(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remove", flag.ContinueOnError)
	fs.SetOutput(c.out)
	id := fs.String("id", "", "control ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("remove requires -id")
	}
	err := c.api.JSON(ctx, http.MethodDelete, "/controls?id="+url.QueryEscape(*id), nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "removed %s\n", *id)
	return nil
}

func (c *client) cmdCheck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(c.out)
	app := fs.String("app", "", "trace ID (empty = all traces)")
	failures := fs.Bool("failures", false, "only print non-satisfied outcomes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := "/compliance"
	if *app != "" {
		path += "?app=" + url.QueryEscape(*app)
	}
	var outcomes []api.Outcome
	if err := c.api.JSON(ctx, http.MethodGet, path, nil, &outcomes); err != nil {
		return err
	}
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].AppID != outcomes[j].AppID {
			return outcomes[i].AppID < outcomes[j].AppID
		}
		return outcomes[i].Control < outcomes[j].Control
	})
	printed := 0
	for _, o := range outcomes {
		if *failures && o.Verdict == "satisfied" {
			continue
		}
		fmt.Fprintf(c.out, "%-20s %-24s %s", o.AppID, o.Control, o.Verdict)
		for _, a := range o.Alerts {
			fmt.Fprintf(c.out, "  [%s]", a)
		}
		fmt.Fprintln(c.out)
		printed++
	}
	fmt.Fprintf(c.out, "%d outcomes\n", printed)
	return nil
}

func (c *client) cmdDashboard(ctx context.Context, args []string) error {
	var kpis []api.KPI
	if err := c.api.JSON(ctx, http.MethodGet, "/dashboard", nil, &kpis); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-24s %7s %9s %8s %6s %5s %10s\n",
		"CONTROL", "TRACES", "SATISFIED", "VIOLATED", "INDET", "N/A", "COMPLIANCE")
	for _, k := range kpis {
		fmt.Fprintf(c.out, "%-24s %7d %9d %8d %6d %5d %9.1f%%\n",
			k.ControlID, k.Total, k.Satisfied, k.Violated, k.Indeterminate,
			k.NotApplicable, 100*k.ComplianceRate)
	}
	return nil
}

func (c *client) cmdViolations(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("violations", flag.ContinueOnError)
	fs.SetOutput(c.out)
	n := fs.Int("n", 10, "entries to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var feed []struct {
		ControlID string   `json:"ControlID"`
		AppID     string   `json:"AppID"`
		Alerts    []string `json:"Alerts"`
	}
	if err := c.api.JSON(ctx, http.MethodGet, fmt.Sprintf("/violations?n=%d", *n), nil, &feed); err != nil {
		return err
	}
	for _, v := range feed {
		fmt.Fprintf(c.out, "%-20s %-24s", v.AppID, v.ControlID)
		for _, a := range v.Alerts {
			fmt.Fprintf(c.out, "  [%s]", a)
		}
		fmt.Fprintln(c.out)
	}
	return nil
}

func (c *client) cmdRows(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rows", flag.ContinueOnError)
	fs.SetOutput(c.out)
	app := fs.String("app", "", "trace ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("rows requires -app")
	}
	var rows []struct {
		ID    string `json:"ID"`
		Class string `json:"Class"`
		AppID string `json:"AppID"`
		XML   string `json:"XML"`
	}
	if err := c.api.JSON(ctx, http.MethodGet, "/rows?app="+url.QueryEscape(*app), nil, &rows); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-22s %-9s %-18s %s\n", "ID", "CLASS", "APPID", "XML")
	for _, r := range rows {
		fmt.Fprintf(c.out, "%-22s %-9s %-18s %s\n", r.ID, r.Class, r.AppID, r.XML)
	}
	return nil
}

func (c *client) cmdGraph(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	fs.SetOutput(c.out)
	app := fs.String("app", "", "trace ID")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("graph requires -app")
	}
	if *dot {
		return c.copyText(ctx, "/graph.dot?app="+url.QueryEscape(*app))
	}
	var g api.Graph
	if err := c.api.JSON(ctx, http.MethodGet, "/graph?app="+url.QueryEscape(*app), nil, &g); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(c.out, "node %-9s %-28s %s\n", n.Class, n.ID, n.Type)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(c.out, "edge %-28s -%s-> %s\n", e.Source, e.Type, e.Target)
	}
	return nil
}

func (c *client) cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(c.out)
	findings := fs.Int("findings", 20, "max findings listed per control")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return c.copyText(ctx, fmt.Sprintf("/report?findings=%d", *findings))
}

func (c *client) cmdSegments(ctx context.Context, args []string) error {
	var segs []store.SegmentInfo
	if err := c.api.JSON(ctx, http.MethodGet, "/segments", nil, &segs); err != nil {
		return err
	}
	if len(segs) == 0 {
		fmt.Fprintln(c.out, "no sealed segments")
		return nil
	}
	// BACKS: resident traces promoted by reference whose base rows are
	// still this segment's. PINNED: a promotion marker in the current log
	// names the segment, so GC keeps it until the next log rewrite.
	// FORMAT: 1 for a segment an older binary sealed (Table-1 rows).
	fmt.Fprintf(c.out, "%-4s %6s %10s %8s %7s %6s %6s %6s %6s %12s %-24s %10s %8s\n",
		"ID", "FORMAT", "SIZE", "INDEX", "TRACES", "BACKS", "PINNED", "ROWS", "BLOCKS", "SEQ", "TRACE RANGE", "BLOOM", "FPP")
	var bytes, index int64
	var traces, backs, pinned, rows int
	for _, s := range segs {
		pin := "-"
		if s.Pinned {
			pin, pinned = "yes", pinned+1
		}
		fmt.Fprintf(c.out, "%-4d %6d %10d %8d %7d %6d %6s %6d %6d %5d..%-5d %-24s %9.1f%% %8.4f\n",
			s.ID, s.Format, s.SizeBytes, s.IndexBytes, s.Traces, s.SegmentBackedTraces, pin, s.Rows, s.Blocks, s.MinSeq, s.MaxSeq,
			s.MinApp+".."+s.MaxApp, 100*s.BloomFill, s.BloomFPP)
		bytes += s.SizeBytes
		index += s.IndexBytes
		traces += s.Traces
		backs += s.SegmentBackedTraces
		rows += s.Rows
	}
	fmt.Fprintf(c.out, "%d segments, %d sealed traces, %d rows, %d bytes on disk, %d index bytes resident, %d resident traces segment-backed, %d segments pinned\n",
		len(segs), traces, rows, bytes, index, backs, pinned)
	return nil
}

func (c *client) cmdStats(ctx context.Context, args []string) error {
	var stats map[string]any
	if err := c.api.JSON(ctx, http.MethodGet, "/stats", nil, &stats); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, string(raw))
	return nil
}

// cmdCluster inspects and reshapes a provrouter cluster:
//
//	pctl -server http://router:8340 cluster            topology and health
//	pctl cluster join -name s3 -url http://host:8343   add a shard (handoff)
//	pctl cluster leave -name s1 [-force]               drain (or drop) a shard
func (c *client) cmdCluster(ctx context.Context, args []string) error {
	if len(args) > 0 && (args[0] == "join" || args[0] == "leave") {
		verb, rest := args[0], args[1:]
		fs := flag.NewFlagSet("cluster "+verb, flag.ContinueOnError)
		fs.SetOutput(c.out)
		name := fs.String("name", "", "shard name")
		url := fs.String("url", "", "shard base URL (join)")
		force := fs.Bool("force", false, "drop a dead shard without handoff (leave)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *name == "" {
			return fmt.Errorf("cluster %s: -name required", verb)
		}
		var out map[string]any
		if verb == "join" {
			if *url == "" {
				return fmt.Errorf("cluster join: -url required")
			}
			if err := c.api.JSON(ctx, http.MethodPost, "/cluster/join", map[string]string{"name": *name, "url": *url}, &out); err != nil {
				return err
			}
		} else {
			body := map[string]any{"name": *name, "force": *force}
			if err := c.api.JSON(ctx, http.MethodPost, "/cluster/leave", body, &out); err != nil {
				return err
			}
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(c.out, string(raw))
		return nil
	}
	var topo struct {
		Shards []struct {
			Name    string  `json:"name"`
			URL     string  `json:"url"`
			Share   float64 `json:"share"`
			Healthy bool    `json:"healthy"`
			Error   string  `json:"error"`
		} `json:"shards"`
		Vnodes       int `json:"vnodes"`
		MovingTraces int `json:"movingTraces"`
		PendingAcks  int `json:"pendingAcks"`
	}
	if err := c.api.JSON(ctx, http.MethodGet, "/cluster", nil, &topo); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-12s %-28s %7s %-8s %s\n", "SHARD", "URL", "SHARE", "STATE", "")
	for _, sh := range topo.Shards {
		state := "up"
		if !sh.Healthy {
			state = "DOWN"
		}
		fmt.Fprintf(c.out, "%-12s %-28s %6.1f%% %-8s %s\n",
			sh.Name, sh.URL, 100*sh.Share, state, sh.Error)
	}
	fmt.Fprintf(c.out, "%d shards, %d vnodes/shard, %d traces mid-handoff, %d pending acks\n",
		len(topo.Shards), topo.Vnodes, topo.MovingTraces, topo.PendingAcks)
	return nil
}
