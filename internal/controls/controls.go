// Package controls manages internal control points over the provenance
// store: deployment of rule texts authored in business vocabulary, batch
// and continuous compliance checking, and materialization of each control
// as a Custom node linked to the data nodes it governs — exactly Fig 2 of
// the paper, where "the internal control is created during the execution
// of the traces as a custom node and connected to the Job Requisition,
// Approval Status and the Candidate List data nodes".
package controls

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/tenant"
)

// ControlTypeName is the custom node type materialized control points use.
const ControlTypeName = "controlPoint"

// ChecksRelation is the edge type linking a control point to the records
// it verified.
const ChecksRelation = "checks"

// DeclareModel adds the control-point type and checks relation to a data
// model, so stores validate materialized control nodes. Call it while
// building the model, before opening the store.
func DeclareModel(m *provenance.Model) error {
	if err := m.AddType(&provenance.TypeDef{
		Name: ControlTypeName, Class: provenance.ClassCustom,
		Doc: "materialized internal control point (Fig 2)",
	}); err != nil {
		return err
	}
	for _, f := range []*provenance.FieldDef{
		{Name: "controlID", Kind: provenance.KindString, Indexed: true},
		{Name: "status", Kind: provenance.KindString},
		{Name: "version", Kind: provenance.KindInt},
	} {
		if err := m.AddField(ControlTypeName, f); err != nil {
			return err
		}
	}
	return m.AddRelation(&provenance.RelationDef{
		Name: ChecksRelation, SourceType: ControlTypeName,
		Doc: "control point verifies record",
	})
}

// Evaluator is anything the registry can deploy as an internal control.
// *rules.Control, a rule compiled from business vocabulary, is the one
// production implementation; tests deploy stubs through DeployEvaluator.
type Evaluator interface {
	// Evaluate runs the control on one trace of the graph.
	Evaluate(g *provenance.Graph, appID string) *rules.Result
	// Text renders the control's source for listings.
	Text() string
}

// ControlPoint is one deployed internal control.
type ControlPoint struct {
	// ID is the stable registry key — tenant-qualified ("acme::ctl-1")
	// for every tenant but the default one.
	ID string
	// Tenant is the owning namespace. Controls only ever evaluate traces
	// of their own tenant.
	Tenant string
	// Name is the human-readable title.
	Name string
	// Text is the rule source in business vocabulary.
	Text string
	// Version increments on every redeployment — the paper's requirement
	// that business people test different controls "without requiring the
	// application code to be modified" makes redeployment a first-class
	// operation.
	Version int

	compiled Evaluator

	// shadow, when non-nil, is a candidate version evaluated on the same
	// snapshots as the live evaluator; its verdicts are only compared
	// (divergence counting), never delivered or alerted.
	shadow        Evaluator
	shadowText    string
	shadowVersion int
}

// HasShadow reports whether a candidate version is deployed in shadow
// mode alongside the live one.
func (cp *ControlPoint) HasShadow() bool { return cp != nil && cp.shadow != nil }

// ShadowVersion is the version the shadow candidate would take on
// promotion (0 when no shadow is deployed).
func (cp *ControlPoint) ShadowVersion() int {
	if cp == nil || cp.shadow == nil {
		return 0
	}
	return cp.shadowVersion
}

// ShadowText is the shadow candidate's rule source ("" when none).
func (cp *ControlPoint) ShadowText() string {
	if cp == nil || cp.shadow == nil {
		return ""
	}
	return cp.shadowText
}

// Outcome pairs a control with its evaluation result on one trace.
type Outcome struct {
	ControlID string
	Tenant    string
	Name      string
	Version   int
	// TraceVersion is the store version of the trace the control was
	// evaluated at; zero when the graph was caller-supplied (CheckGraph).
	TraceVersion uint64
	Result       *rules.Result
}

// Options configures a registry.
type Options struct {
	// Materialize controls whether Check writes control-point custom nodes
	// and checks edges into the store (Fig 2). Off, checking is read-only.
	Materialize bool
	// DisableCache turns off the incremental result cache and, with it,
	// delta-driven checking: every Check and CheckDelta re-evaluates every
	// control on the whole trace. Kept because it is the slow-and-obvious
	// reference evaluator the cache and delta property tests compare
	// against. On (the default), Check skips re-evaluation entirely when
	// neither the trace nor the deployed control set changed since the
	// last check.
	DisableCache bool
	// CheckWorkers is the fan-out width CheckAll uses across traces.
	// Zero or negative means GOMAXPROCS.
	CheckWorkers int
}

// matStripes is the number of per-trace materialization locks; traces
// hash onto stripes so concurrent checks of different traces materialize
// in parallel while two checks of the same trace never interleave their
// read-modify-write of the Fig-2 subgraph.
const matStripes = 64

// CacheStats summarizes the incremental result cache.
type CacheStats struct {
	// Hits counts Check calls answered from cache without re-evaluation.
	Hits uint64
	// Misses counts Check calls that had to re-evaluate the trace.
	Misses uint64
	// Entries is the number of traces with a cached result.
	Entries int
}

// cacheEntry is one cached per-trace result: the outcomes of evaluating
// every deployed control at one (trace version, registry generation).
type cacheEntry struct {
	version  uint64 // store trace version at evaluation time
	gen      uint64 // registry generation at evaluation time
	outcomes []*Outcome
}

// Registry holds the deployed control points of one store.
type Registry struct {
	st    *store.Store
	vocab *bom.Vocabulary
	opts  Options

	mu       sync.RWMutex
	controls map[string]*ControlPoint
	order    []string
	gen      uint64 // bumped on every Deploy/Remove; invalidates the cache

	// The result cache is the registry's only per-trace state. Binder
	// candidate sets live for one evaluation (evaluate); bindCounters
	// counts across all of them.
	cacheMu      sync.Mutex
	cache        map[string]*cacheEntry // appID -> last evaluation
	cacheHits    uint64
	cacheMisses  uint64
	bindCounters rules.BindingCounters

	// Delta-discrimination counters (see delta.go).
	deltaChecks    atomic.Uint64
	deltaSkips     atomic.Uint64
	deltaPartials  atomic.Uint64
	deltaFallbacks atomic.Uint64
	deltaNoEntry   atomic.Uint64
	ctrlsEvaluated atomic.Uint64
	ctrlsSkipped   atomic.Uint64

	// Shadow-rollout divergence accounting (see shadow.go).
	shadowMu       sync.Mutex
	shadowChecks   uint64
	shadowDiverged uint64
	shadowByCtrl   map[string]uint64
	shadowSamples  []ShadowSample
	shadowSeq      uint64

	matMu [matStripes]sync.Mutex
}

// NewRegistry builds an empty registry over the store and vocabulary.
func NewRegistry(st *store.Store, vocab *bom.Vocabulary, opts Options) (*Registry, error) {
	if st == nil {
		return nil, fmt.Errorf("controls: nil store")
	}
	if vocab == nil {
		return nil, fmt.Errorf("controls: nil vocabulary")
	}
	if opts.Materialize {
		if m := st.Model(); m != nil && m.Type(ControlTypeName) == nil {
			return nil, fmt.Errorf("controls: model lacks %s; call DeclareModel when building it", ControlTypeName)
		}
	}
	return &Registry{
		st: st, vocab: vocab, opts: opts,
		controls:     make(map[string]*ControlPoint),
		cache:        make(map[string]*cacheEntry),
		shadowByCtrl: make(map[string]uint64),
	}, nil
}

// regKey builds the registry key of a control: the bare ID within the
// default tenant, the tenant-qualified ID everywhere else — so two
// tenants may each own a "ctl-approval" without colliding.
func regKey(tenantID, id string) string {
	if tenantID == "" || tenantID == tenant.DefaultID {
		return id
	}
	return tenant.Qualify(tenantID, id)
}

// Deploy compiles and registers a control in the default tenant.
// Deploying an existing ID replaces its rule text and bumps the version
// — no application code is touched, the central claim of the paper
// (experiment E8).
func (r *Registry) Deploy(id, name, text string) (*ControlPoint, error) {
	return r.DeployTenant(tenant.DefaultID, id, name, text)
}

// DeployTenant compiles and registers a control inside one tenant's
// namespace. id is the tenant-local control ID; the registry key is
// tenant-qualified so namespaces never collide.
func (r *Registry) DeployTenant(tenantID, id, name, text string) (*ControlPoint, error) {
	if id == "" {
		return nil, fmt.Errorf("controls: empty control ID")
	}
	compiled, err := rules.Compile(text, r.vocab)
	if err != nil {
		return nil, fmt.Errorf("controls: %s: %v", id, err)
	}
	return r.deployEvaluator(tenantID, regKey(tenantID, id), name, compiled, text)
}

// DeployEvaluator registers any Evaluator under the registry's
// versioning, in the default tenant. Only controls compiled from text
// persist (SaveTo).
func (r *Registry) DeployEvaluator(id, name string, ev Evaluator, text string) (*ControlPoint, error) {
	return r.deployEvaluator(tenant.DefaultID, id, name, ev, text)
}

func (r *Registry) deployEvaluator(tenantID, key, name string, ev Evaluator, text string) (*ControlPoint, error) {
	if key == "" {
		return nil, fmt.Errorf("controls: empty control ID")
	}
	if ev == nil {
		return nil, fmt.Errorf("controls: nil evaluator")
	}
	if tenantID == "" {
		tenantID = tenant.DefaultID
	}
	if text == "" {
		text = ev.Text()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.controls[key]
	cp := &ControlPoint{ID: key, Tenant: tenantID, Name: name, Text: text, Version: 1, compiled: ev}
	if prev != nil {
		if prev.Tenant != tenantID {
			return nil, fmt.Errorf("controls: %s belongs to tenant %s", key, prev.Tenant)
		}
		cp.Version = prev.Version + 1
		if cp.Name == "" {
			cp.Name = prev.Name
		}
		// A live redeploy supersedes any shadow candidate: the candidate
		// was diffed against a version that no longer exists.
	} else {
		r.order = append(r.order, key)
	}
	r.controls[key] = cp
	r.gen++ // cached results predate this control set
	return cp, nil
}

// Remove deletes a control from the registry by its registry key.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.controls[id]; !ok {
		return fmt.Errorf("controls: unknown control %s", id)
	}
	delete(r.controls, id)
	for i, cid := range r.order {
		if cid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.gen++ // cached results predate this control set
	return nil
}

// RemoveTenant deletes a tenant-local control by its bare ID.
func (r *Registry) RemoveTenant(tenantID, id string) error {
	return r.Remove(regKey(tenantID, id))
}

// Gen returns the registry generation: it bumps on every Deploy or
// Remove, so an observer caching anything derived from the deployed
// control set (the checker's window tracker) can detect staleness.
func (r *Registry) Gen() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Get returns a deployed control, or nil.
func (r *Registry) Get(id string) *ControlPoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.controls[id]
}

// GetTenant returns a tenant-local control by its bare ID, or nil.
func (r *Registry) GetTenant(tenantID, id string) *ControlPoint {
	return r.Get(regKey(tenantID, id))
}

// List returns the deployed controls in deployment order, across every
// tenant.
func (r *Registry) List() []*ControlPoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ControlPoint, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.controls[id])
	}
	return out
}

// ListTenant returns one tenant's controls in deployment order.
func (r *Registry) ListTenant(tenantID string) []*ControlPoint {
	if tenantID == "" {
		tenantID = tenant.DefaultID
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*ControlPoint
	for _, id := range r.order {
		if cp := r.controls[id]; cp.Tenant == tenantID {
			out = append(out, cp)
		}
	}
	return out
}

// controlsFor snapshots one tenant's controls in deployment order along
// with the current generation — the per-check view. A trace only ever
// meets its own tenant's controls, which (with tenant-prefixed trace
// IDs) makes cross-tenant verdicts impossible by construction.
func (r *Registry) controlsFor(appID string) ([]*ControlPoint, uint64) {
	tn := tenant.Owner(appID)
	r.mu.RLock()
	defer r.mu.RUnlock()
	cps := make([]*ControlPoint, 0, len(r.order))
	for _, id := range r.order {
		if cp := r.controls[id]; cp.Tenant == tn {
			cps = append(cps, cp)
		}
	}
	return cps, r.gen
}

// Check evaluates every deployed control against one trace, materializing
// outcomes when configured. Outcomes are ordered by deployment order.
// Evaluation reads an immutable store snapshot (store.ViewTrace), so
// checks never contend with writers and always see a prefix-consistent
// commit boundary of the trace.
//
// Results are cached per trace, keyed by (trace version, registry
// generation): when neither the trace nor the deployed control set has
// changed since the last evaluation, the cached outcomes are returned
// without touching the graph. Any node or edge write to the trace bumps
// its store version and forces a re-check; any Deploy or Remove bumps the
// registry generation and invalidates everything.
func (r *Registry) Check(appID string) ([]*Outcome, error) {
	cps, gen := r.controlsFor(appID)

	if !r.opts.DisableCache {
		if out, ok := r.cached(appID, gen); ok {
			return out, nil
		}
	}

	outcomes, version, err := r.checkLive(appID, cps)
	if err != nil {
		return outcomes, err
	}
	if !r.opts.DisableCache {
		r.remember(appID, gen, version, outcomes)
	}
	return outcomes, nil
}

// checkLive evaluates cps on the trace's current snapshot, observing
// shadow candidates, and materializes the outcomes when configured: the
// live step of Check and CheckDelta. It returns the snapshot's version.
func (r *Registry) checkLive(appID string, cps []*ControlPoint) ([]*Outcome, uint64, error) {
	var outcomes []*Outcome
	var version uint64
	err := r.st.ViewTrace(appID, func(g *provenance.Graph, v uint64) error {
		version = v
		var err error
		outcomes, err = r.evaluate(cps, g, appID, v, true)
		return err
	})
	if err != nil || !r.opts.Materialize {
		return outcomes, version, err
	}
	// Serialize materialization per trace: the read-modify-write of the
	// Fig-2 subgraph is not atomic, and two interleaved checks of the
	// same trace could otherwise double-insert checks edges.
	lock := &r.matMu[traceStripe(appID)]
	lock.Lock()
	defer lock.Unlock()
	// A trace the store does not hold, dropped since it was evaluated or
	// never written, gets no control points: committing them would create
	// it holding only those. A drop holds the stripe (LockTraces), so it
	// cannot land between this test and the commits.
	if r.st.TraceVersion(appID) == 0 {
		return outcomes, version, nil
	}
	for _, o := range outcomes {
		if err := r.materialize(o); err != nil {
			return outcomes, version, err
		}
	}
	return outcomes, version, nil
}

// evaluate runs cps in order on one trace of g at version v (zero for a
// caller-supplied graph): the evaluation step of Check, CheckDelta and
// CheckGraph. Its controls and their shadow candidates share one binding
// memo, taken from a shared pool and released when the call ends.
// Only live evaluations observe shadows: a historical reading must not
// touch the divergence counters.
func (r *Registry) evaluate(cps []*ControlPoint, g *provenance.Graph, appID string, v uint64, live bool) ([]*Outcome, error) {
	bindings := rules.AcquireBindingCache(&r.bindCounters)
	defer bindings.Release()
	outcomes := make([]*Outcome, 0, len(cps))
	for _, cp := range cps {
		// One allocation per outcome: the Result, and the binding of a
		// control with one node variable, live inside it.
		o := &outcomeBox{Outcome: Outcome{
			ControlID: cp.ID, Tenant: cp.Tenant, Name: cp.Name, Version: cp.Version,
			TraceVersion: v,
		}}
		o.Result = &o.res
		o.res.Bindings = o.bind[:0]
		if err := safeEvaluate(o.Result, cp.ID, cp.compiled, g, appID, bindings); err != nil {
			return nil, err
		}
		if live {
			r.observeShadow(cp, g, appID, o.Result, bindings)
		}
		outcomes = append(outcomes, &o.Outcome)
	}
	return outcomes, nil
}

// outcomeBox is an Outcome allocated together with the Result it points
// to and room for one binding, which most controls have.
type outcomeBox struct {
	Outcome
	res  rules.Result
	bind [1]rules.Binding
}

// CheckGraph evaluates every deployed control against a caller-supplied
// trace graph — the point-in-time audit path: pair it with
// store.TraceAsOf to ask "what would today's controls have said at
// commit N?". Nothing is cached or materialized: the graph is not the
// live trace, so its outcomes must not shadow the incremental result
// cache, and writing control nodes for a historical reading would
// corrupt the present. Cross-control binding reuse applies within the
// call, as in every evaluation.
func (r *Registry) CheckGraph(appID string, g *provenance.Graph) ([]*Outcome, error) {
	if g == nil {
		return nil, fmt.Errorf("controls: nil graph")
	}
	cps, _ := r.controlsFor(appID)
	return r.evaluate(cps, g, appID, 0, false)
}

// safeEvaluate runs one evaluator into res, converting a panic into an
// error: a misbehaving control must surface in the checker's error stats,
// not take down the continuous engine (or the daemon hosting it).
// Evaluators that support shared bindings (compiled rule controls)
// receive the evaluation's binding cache; others (test stubs) evaluate
// standalone.
func safeEvaluate(res *rules.Result, id string, ev Evaluator, g *provenance.Graph, appID string, bindings *rules.BindingCache) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("controls: %s panicked evaluating %s: %v", id, appID, p)
		}
	}()
	if se, ok := ev.(sharedEvaluator); ok {
		se.EvaluateInto(res, g, appID, bindings)
		return nil
	}
	*res = *ev.Evaluate(g, appID)
	return nil
}

// sharedEvaluator is the optional Evaluator extension for cross-control
// binding reuse; *rules.Control implements it.
type sharedEvaluator interface {
	EvaluateInto(res *rules.Result, g *provenance.Graph, appID string, cache *rules.BindingCache)
}

// BindingStats summarizes cross-control binding reuse within evaluations.
type BindingStats struct {
	// Hits counts binder candidate sets served from an evaluation's
	// memo; Misses counts the computations that populated one.
	Hits   uint64
	Misses uint64
}

// BindingStats returns a snapshot of the binding-reuse counters.
func (r *Registry) BindingStats() BindingStats {
	return BindingStats{Hits: r.bindCounters.Hits.Load(), Misses: r.bindCounters.Misses.Load()}
}

// Plans returns the binder access plans of every deployed control that
// exposes them (compiled rule controls), keyed by control ID.
func (r *Registry) Plans() map[string][]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][]string)
	for id, cp := range r.controls {
		if p, ok := cp.compiled.(interface{ PlanSummaries() []string }); ok {
			if s := p.PlanSummaries(); len(s) > 0 {
				out[id] = s
			}
		}
	}
	return out
}

// cached returns the memoized outcomes for a trace when they are still
// current: same registry generation and same store trace version.
func (r *Registry) cached(appID string, gen uint64) ([]*Outcome, bool) {
	ver := r.st.TraceVersion(appID)
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	e := r.cache[appID]
	if e == nil || e.gen != gen || e.version != ver {
		r.cacheMisses++
		return nil, false
	}
	r.cacheHits++
	// Copy the slice header so callers appending to the result do not
	// alias the cache.
	return append([]*Outcome(nil), e.outcomes...), true
}

// remember stores a trace's outcomes, never replacing a newer entry with
// an older one (two concurrent checks may finish out of order).
func (r *Registry) remember(appID string, gen, version uint64, outcomes []*Outcome) {
	if version == 0 { // no tier holds the trace: made-up IDs must not grow the cache
		return
	}
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if e := r.cache[appID]; e != nil && e.gen == gen && e.version > version {
		return
	}
	r.cache[appID] = &cacheEntry{version: version, gen: gen, outcomes: outcomes}
}

// Forget drops the result-cache entries of traces the store dropped, so a
// trace that comes back (a handoff returning it to this node) is checked
// afresh rather than matched against verdicts from before it left.
func (r *Registry) Forget(apps ...string) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	for _, app := range apps {
		delete(r.cache, app)
	}
}

// CacheStats returns a snapshot of the incremental result cache counters.
func (r *Registry) CacheStats() CacheStats {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	return CacheStats{Hits: r.cacheHits, Misses: r.cacheMisses, Entries: len(r.cache)}
}

// traceStripe hashes a trace ID onto a materialization lock stripe.
func traceStripe(appID string) int {
	h := fnv.New32a()
	h.Write([]byte(appID))
	return int(h.Sum32() % matStripes)
}

// LockTraces holds the materialization stripes of apps until the returned
// func is called, so no check of those traces commits control points in
// between: the store drops traces under it. Stripes are taken in index
// order, and a check holds at most one, so lockers cannot deadlock.
func (r *Registry) LockTraces(apps ...string) (unlock func()) {
	var held [matStripes]bool
	for _, app := range apps {
		held[traceStripe(app)] = true
	}
	for i := range held {
		if held[i] {
			r.matMu[i].Lock()
		}
	}
	return func() {
		for i := range held {
			if held[i] {
				r.matMu[i].Unlock()
			}
		}
	}
}

// CheckAll evaluates every control against every trace, fanning out
// across Options.CheckWorkers goroutines (GOMAXPROCS by default).
// Outcomes keep the deterministic serial order — traces sorted, controls
// in deployment order — regardless of which worker checked what. A trace
// whose check fails contributes no outcomes; the first such error (in
// trace order) is returned with the rest.
func (r *Registry) CheckAll() ([]*Outcome, error) {
	apps := r.st.AppIDs()
	workers := r.opts.CheckWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(apps))

	results := make([][]*Outcome, len(apps))
	errs := make([]error, len(apps))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(apps) {
					return
				}
				results[i], errs[i] = r.Check(apps[i])
			}
		}()
	}
	wg.Wait()

	var out []*Outcome
	var firstErr error
	for i := range apps {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		out = append(out, results[i]...)
	}
	return out, firstErr
}

// materialize writes the Fig-2 subgraph for one outcome: a controlPoint
// custom node carrying the verdict, plus checks edges to every node the
// control's definitions bound.
func (r *Registry) materialize(o *Outcome) error {
	nodeID := fmt.Sprintf("cp-%s-%s", o.ControlID, o.Result.AppID)
	node := &provenance.Node{
		ID: nodeID, Class: provenance.ClassCustom, Type: ControlTypeName,
		AppID: o.Result.AppID,
		Attrs: provenance.Attrs{
			{Name: "controlID", Value: provenance.String(o.ControlID)},
			{Name: "status", Value: provenance.String(o.Result.Verdict.String())},
			{Name: "version", Value: provenance.Int(int64(o.Version))},
		},
	}
	// The subgraph is one commit. A node already carrying exactly this
	// verdict is left alone: re-checks of unchanged traces then leave the
	// store untouched, which keeps the trace version stable and lets the
	// result cache converge instead of invalidating itself with its own
	// writes.
	var b store.Batch
	if prev := r.st.Node(nodeID); prev == nil {
		b.Nodes = append(b.Nodes, node)
	} else if !sameControlAttrs(prev, node) {
		b.Updates = append(b.Updates, node)
	}
	// Link to every bound node, skipping edges that already exist. An
	// edge's ID names what it links, so it never collides with another
	// session's.
	var targets []string
	for _, b := range o.Result.Bindings {
		targets = append(targets, b.IDs...)
	}
	sort.Strings(targets)
	_ = r.st.View(func(g *provenance.Graph) error { // the closure cannot fail
		for i, tgt := range targets {
			if tgt != nodeID && (i == 0 || tgt != targets[i-1]) && g.Node(tgt) != nil && !g.HasEdge(nodeID, ChecksRelation, tgt) {
				b.Edges = append(b.Edges, &provenance.Edge{
					ID: "cpe-" + o.ControlID + "-" + tgt, Type: ChecksRelation, AppID: o.Result.AppID,
					Source: nodeID, Target: tgt,
				})
			}
		}
		return nil
	})
	res := r.st.Commit(b)
	for _, errs := range [][]error{res.Nodes, res.Updates, res.Edges} {
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("controls: materialize %s: %v", nodeID, err)
			}
		}
	}
	return nil
}

// sameControlAttrs reports whether a materialized control node already
// carries the attributes the new outcome would write.
func sameControlAttrs(prev, next *provenance.Node) bool {
	if len(prev.Attrs) != len(next.Attrs) {
		return false
	}
	for i, a := range next.Attrs {
		if p := prev.Attrs[i]; p.Name != a.Name || !p.Value.Equal(a.Value) {
			return false
		}
	}
	return true
}
