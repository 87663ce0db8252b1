// Package core wires the paper's full architecture into one system: the
// provenance store, recorder-client pipeline, correlation analytics,
// verbalized vocabulary, internal control registry, and compliance
// dashboard. This is the library's primary entry point — the bridge the
// paper builds "by connecting provenance data model to execution object
// model first, then to business object model, and finally to rule editing
// in business vocabulary".
//
// An event has one life: the pipeline transforms it, derives the
// correlation records it causes and commits both together, so every ingest
// — System.Ingest, the async gateway, POST /events in front of either —
// leaves a connected graph behind. The paper's Section II-A query styles
// only select when controls are checked: on demand (Check / CheckAll, the
// "query deployed into the provenance store" style) or, with
// Config.Continuous, by the compliance checker on the store's change feed,
// so verdicts and dashboard KPIs update as events arrive. CorrelateTrace / CorrelateAll
// remain as the repair path for records that reached the store otherwise.
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/controls"
	"repro/internal/correlate"
	"repro/internal/dashboard"
	"repro/internal/events"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Config tunes a System.
type Config struct {
	// Dir is the store's log directory; empty runs in memory.
	Dir string
	// Sync forces fsync before acknowledging writes (durability over
	// throughput). Concurrent writers share fsyncs via group commit,
	// which batches opportunistically: no added latency, batching only
	// under concurrency.
	Sync bool
	// Materialize writes control points into the graph (Fig 2).
	Materialize bool
	// Continuous runs the compliance checker on the change feed.
	// (Correlation has no mode: it rides in every ingest commit.)
	Continuous bool
	// Workers is the shard count of the continuous checking engine and
	// the fan-out width of batch CheckAll (0 = GOMAXPROCS).
	Workers int
	// IngestShards / IngestQueueDepth / IngestMaxBatch size the async
	// ingestion gateway: its workers, the events its one queue holds per
	// worker, and the events coalesced per store commit. Zero values take
	// the gateway defaults.
	IngestShards     int
	IngestQueueDepth int
	IngestMaxBatch   int
	// DisableAsyncIngest builds no gateway, for in-process systems that
	// call System.Ingest and serve no HTTP: events are ingested on the
	// caller, committed when the call returns. httpapi refuses such a
	// system, as the gateway is the one door an HTTP write takes. Kept
	// because bench/'s check_heavy and E12's in-process arm build their
	// systems this way.
	DisableAsyncIngest bool
	// SegmentColdAfter is the demotion policy: during store compaction a
	// trace untouched for this many commits is sealed into an on-disk
	// segment and dropped from the hot tier. Zero keeps every trace hot —
	// the all-resident retention policy for deployments whose history fits
	// in memory (experiment E15) — and existing segments still read.
	SegmentColdAfter uint64
	// SegmentCacheMB caps, in MiB, the sealed-segment block cache and,
	// with a budget of its own of the same size, the result cache's
	// verdicts of sealed traces (0 = store default, 32 MiB).
	SegmentCacheMB int
	// DisableSegmentGC keeps every sealed segment on disk even after all
	// of its trace copies were promoted back or superseded; by default
	// compaction reclaims fully-dead segment files. Disabling preserves
	// the complete as-of version history at the cost of unbounded
	// segment growth. Kept as a retention policy: full point-in-time
	// audit depth.
	DisableSegmentGC bool
	// FS overrides the filesystem the durable store runs on; nil uses
	// the process filesystem. Benchmarks inject slowfs device models
	// (experiment E16), fault tests the faultfs injector.
	FS store.FS
	// CompactEvery, when positive, runs store compaction on this cadence.
	// Compaction is the demotion engine's heartbeat — SegmentColdAfter
	// only takes effect when something calls Compact — so a durable
	// daemon wanting automatic demotion sets both. Ticks are skipped
	// while the store has not grown since the last compaction, so an
	// idle system never rewrites its log. Zero leaves compaction to the
	// caller.
	CompactEvery time.Duration
	// WindowTick, when positive, starts a wall-clock ticker that calls
	// Checker.Tick at this cadence so traces whose sliding-window
	// deadline passes without the target event re-surface to observers.
	// Zero leaves the clock to the caller (Tick stays available);
	// verdicts themselves never read the wall clock either way.
	WindowTick time.Duration
}

// System is one wired instance of the paper's architecture.
type System struct {
	Domain *workload.Domain
	// controlsPath, when set, receives the deployed-control snapshot on
	// DeployControl/RemoveControl and Close.
	controlsPath string

	Store      *store.Store
	Pipeline   *events.Pipeline
	Correlator *correlate.Engine
	Registry   *controls.Registry
	Checker    *controls.Checker
	Board      *dashboard.Board
	Query      *query.Engine
	// Tenants is the multi-tenant control plane: namespaces, admission
	// quotas and fair-share weights. Always present — single-tenant
	// deployments just never leave the default tenant.
	Tenants *tenant.Registry
	// tenantsPath, when set, receives the tenant registry snapshot on
	// every tenant mutation.
	tenantsPath string
	// Gateway is the ingestion front door, the one an HTTP write takes;
	// nil when Config.DisableAsyncIngest is set.
	Gateway *ingest.Gateway

	compactStop chan struct{} // non-nil while the compaction ticker runs
	compactDone chan struct{}
}

// New builds and starts a system for a domain: opens the store against the
// domain's data model, registers the recorder mappings and correlation
// rules, verbalizes the vocabulary (already carried by the domain), and
// deploys the domain's internal controls.
func New(d *workload.Domain, cfg Config) (*System, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil domain")
	}
	st, err := store.Open(store.Options{
		Dir: cfg.Dir, Model: d.Model, Sync: cfg.Sync,
		SegmentColdAfter:  cfg.SegmentColdAfter,
		SegmentCacheBytes: int64(cfg.SegmentCacheMB) << 20,
		DisableSegmentGC:  cfg.DisableSegmentGC,
		FS:                cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	sys := &System{Domain: d, Store: st, Tenants: tenant.NewRegistry()}
	fail := func(err error) (*System, error) {
		st.Close()
		return nil, err
	}
	if sys.Correlator, err = correlate.NewEngine(st, d.Correlations...); err != nil {
		return fail(err)
	}
	for _, en := range d.Enrichers {
		if err := sys.Correlator.AddEnricher(en); err != nil {
			return fail(err)
		}
	}
	if sys.Pipeline, err = events.NewPipeline(st, sys.Correlator, d.Mappings...); err != nil {
		return fail(err)
	}
	if sys.Registry, err = controls.NewRegistry(st, d.Vocab, controls.Options{
		Materialize:  cfg.Materialize,
		CheckWorkers: cfg.Workers,
	}); err != nil {
		return fail(err)
	}
	for _, cs := range d.Controls {
		if _, err := sys.Registry.Deploy(cs.ID, cs.Name, cs.Text); err != nil {
			return fail(err)
		}
	}
	// Restore controls business users deployed in earlier sessions; their
	// versions win over the domain defaults deployed above.
	if cfg.Dir != "" {
		sys.controlsPath = filepath.Join(cfg.Dir, "controls.json")
		if _, err := sys.Registry.LoadFrom(sys.controlsPath); err != nil {
			return fail(err)
		}
		sys.tenantsPath = filepath.Join(cfg.Dir, "tenants.json")
		if _, err := sys.Tenants.LoadFrom(sys.tenantsPath); err != nil {
			return fail(err)
		}
	}
	sys.Board = dashboard.New(0)
	if sys.Query, err = query.NewEngine(st); err != nil {
		return fail(err)
	}
	sys.Checker = controls.NewCheckerOpts(sys.Registry, sys.Board, controls.CheckerOptions{
		Workers:      cfg.Workers,
		TenantWeight: sys.Tenants.Weight,
	})
	if cfg.Continuous {
		sys.Checker.Start()
	}
	if cfg.WindowTick > 0 {
		sys.Checker.StartTicker(cfg.WindowTick)
	}
	if cfg.CompactEvery > 0 && cfg.Dir != "" {
		sys.startCompactor(cfg.CompactEvery)
	}
	if !cfg.DisableAsyncIngest {
		if sys.Gateway, err = ingest.New(ingest.Config{
			Shards:     cfg.IngestShards,
			QueueDepth: cfg.IngestQueueDepth,
			MaxBatch:   cfg.IngestMaxBatch,
			Quotas:     sys.Tenants,
		}, sys.Pipeline.Reserve); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

// DeployControl deploys (or redeploys) a control in the default tenant
// and, for durable systems, persists the control set.
func (s *System) DeployControl(id, name, text string) (*controls.ControlPoint, error) {
	return s.DeployControlTenant(tenant.DefaultID, id, name, text)
}

// DeployControlTenant deploys a control inside one tenant's namespace
// and persists the control set when durable.
func (s *System) DeployControlTenant(tenantID, id, name, text string) (*controls.ControlPoint, error) {
	cp, err := s.Registry.DeployTenant(tenantID, id, name, text)
	if err != nil {
		return nil, err
	}
	return cp, s.persistControls()
}

// DeployShadowControl attaches a shadow candidate to an existing control
// (key is the tenant-qualified registry key) and persists it, so a
// restart does not silently abort an in-flight rollout.
func (s *System) DeployShadowControl(key, text string) (*controls.ControlPoint, error) {
	cp, err := s.Registry.DeployShadow(key, text)
	if err != nil {
		return nil, err
	}
	return cp, s.persistControls()
}

// PromoteControl atomically makes a control's shadow candidate the live
// version and persists the swap.
func (s *System) PromoteControl(key string) (*controls.ControlPoint, error) {
	cp, err := s.Registry.Promote(key)
	if err != nil {
		return nil, err
	}
	return cp, s.persistControls()
}

// RollbackControl discards a control's shadow candidate and persists.
func (s *System) RollbackControl(key string) (*controls.ControlPoint, error) {
	cp, err := s.Registry.Rollback(key)
	if err != nil {
		return nil, err
	}
	return cp, s.persistControls()
}

func (s *System) persistControls() error {
	if s.controlsPath == "" {
		return nil
	}
	return s.Registry.SaveTo(s.controlsPath)
}

// CreateTenant registers (or updates) a tenant and persists the registry
// when durable.
func (s *System) CreateTenant(t tenant.Tenant) error {
	if err := s.Tenants.Create(t); err != nil {
		return err
	}
	return s.persistTenants()
}

func (s *System) persistTenants() error {
	if s.tenantsPath == "" {
		return nil
	}
	return s.Tenants.SaveTo(s.tenantsPath)
}

// RemoveControl removes a control and persists the change when durable.
func (s *System) RemoveControl(id string) error {
	if err := s.Registry.Remove(id); err != nil {
		return err
	}
	if s.controlsPath != "" {
		return s.Registry.SaveTo(s.controlsPath)
	}
	return nil
}

// Ingest feeds application events through the recorder pipeline.
func (s *System) Ingest(evs []events.AppEvent) error {
	return s.Pipeline.IngestAll(evs)
}

// CorrelateAll re-derives every hot trace's correlation records and
// commits what is missing — a repair: ingest already derives in-commit.
func (s *System) CorrelateAll() error { return s.Correlator.RunAll() }

// CorrelateTrace is CorrelateAll for one trace, either tier.
func (s *System) CorrelateTrace(appID string) error { return s.Correlator.RunTrace(appID) }

// Check evaluates every control on one trace and records the outcomes on
// the dashboard.
func (s *System) Check(appID string) ([]*controls.Outcome, error) {
	out, err := s.Registry.Check(appID)
	if err != nil {
		return nil, err
	}
	s.Board.Record(out)
	return out, nil
}

// CheckAll evaluates every control on every trace.
func (s *System) CheckAll() ([]*controls.Outcome, error) {
	out, err := s.Registry.CheckAll()
	if err != nil {
		return nil, err
	}
	s.Board.Record(out)
	return out, nil
}

// DropTraces removes traces this node handed off to another shard: the
// store drops their records, then the registry and the dashboard forget
// them, so a cluster-wide dashboard counts each trace at its new owner
// only and a trace handed back is checked afresh. A running checker does
// the forgetting when the drop reaches it on the change feed, after the
// checks of the trace queued before the drop; a stopped one hears
// nothing, so it happens here. A check in flight commits no control
// points for a dropped trace: the drop holds the traces' materialization
// stripes. On a store error the verdicts stay, as the traces may too.
func (s *System) DropTraces(apps ...string) error {
	unlock := s.Registry.LockTraces(apps...)
	err := s.Store.DropTraces(apps...)
	unlock()
	if err != nil {
		return err
	}
	if !s.Checker.Running() {
		s.Registry.Forget(apps...)
		s.Board.Forget(apps...)
	}
	return nil
}

// startCompactor runs Compact on a cadence, skipping ticks while the
// store has not grown — demotion (and log shrinkage) happens without an
// operator in the loop, and an idle system never rewrites its log. A
// failed compaction aborts cleanly (the store keeps serving from the old
// log) and is retried on the next grown tick.
func (s *System) startCompactor(every time.Duration) {
	s.compactStop = make(chan struct{})
	s.compactDone = make(chan struct{})
	go func() {
		defer close(s.compactDone)
		tk := time.NewTicker(every)
		defer tk.Stop()
		var lastSeq uint64
		for {
			select {
			case <-tk.C:
				if seq := s.Store.Stats().Seq; seq != lastSeq {
					if s.Store.Compact() == nil {
						lastSeq = seq
					}
				}
			case <-s.compactStop:
				return
			}
		}
	}()
}

// Close drains the ingestion gateway (admitted events are flushed, not
// dropped), stops the continuous checker, and closes the store.
func (s *System) Close() error {
	var gerr error
	if s.Gateway != nil {
		gerr = s.Gateway.Close()
	}
	if s.compactStop != nil {
		close(s.compactStop)
		<-s.compactDone
		s.compactStop = nil
	}
	s.Checker.StopTicker()
	s.Checker.Stop()
	if err := s.Store.Close(); err != nil {
		return err
	}
	return gerr
}
