package controls

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/rules"
)

// Shadow-mode rollout: a business user edits a control, but instead of
// replacing the live version — instantly changing verdicts for every
// trace — the new text deploys as a shadow candidate. The candidate is
// evaluated on the same snapshots and deltas as the live version, its
// verdicts are compared and the divergence counted (with a bounded
// sample log), and nothing is delivered or alerted. Once the divergence
// profile looks right, Promote swaps the candidate in atomically;
// Rollback discards it. This extends the paper's E8 "change a control
// without touching code" story into a safe-rollout story.
//
// Atomicity is structural, the same copy-on-write discipline Deploy
// uses: every mutation builds a NEW *ControlPoint and replaces the map
// entry under the registry lock, while Check snapshots the control list
// under RLock. Any single evaluation therefore sees exactly one version
// of each control — never zero, never two — and a promotion is one
// pointer swap, not a window.

// shadowSampleCap bounds the divergence sample log.
const shadowSampleCap = 16

// ShadowSample is one recorded live/shadow verdict divergence.
type ShadowSample struct {
	ControlID string `json:"controlId"`
	AppID     string `json:"appId"`
	Live      string `json:"live"`
	Shadow    string `json:"shadow"`
	// Seq orders samples by observation; the log keeps the newest
	// shadowSampleCap of them.
	Seq uint64 `json:"seq"`
}

// ShadowStats summarizes shadow-mode evaluation across the registry.
type ShadowStats struct {
	// Controls is the number of controls currently carrying a shadow
	// candidate.
	Controls int `json:"controls"`
	// Checks counts shadow evaluations (one per live evaluation of a
	// shadowed control).
	Checks uint64 `json:"checks"`
	// Divergences counts evaluations whose shadow verdict differed from
	// the live one.
	Divergences uint64 `json:"divergences"`
	// ByControl breaks divergences down per control ID.
	ByControl map[string]uint64 `json:"byControl,omitempty"`
	// Samples is the newest divergence sample log, oldest first.
	Samples []ShadowSample `json:"samples,omitempty"`
}

// DeployShadow compiles text and attaches it as the shadow candidate of
// an existing control (registry key). The live version keeps answering;
// the candidate only accrues divergence. Redeploying a shadow replaces
// the previous candidate.
func (r *Registry) DeployShadow(key, text string) (*ControlPoint, error) {
	compiled, err := rules.Compile(text, r.vocab)
	if err != nil {
		return nil, fmt.Errorf("controls: shadow %s: %v", key, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.controls[key]
	if prev == nil {
		return nil, fmt.Errorf("controls: unknown control %s", key)
	}
	cp := *prev
	cp.shadow = compiled
	cp.shadowText = text
	cp.shadowVersion = prev.Version + 1
	r.controls[key] = &cp
	// Bump the generation so cached traces re-evaluate and the shadow
	// starts observing immediately, not only on the next write.
	r.gen++
	return &cp, nil
}

// Promote atomically makes the shadow candidate the live version. The
// swap is one copy-on-write map replacement under the registry lock:
// checks snapshotting before it evaluate only the old live version,
// checks after it only the new one.
func (r *Registry) Promote(key string) (*ControlPoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.controls[key]
	if prev == nil {
		return nil, fmt.Errorf("controls: unknown control %s", key)
	}
	if prev.shadow == nil {
		return nil, fmt.Errorf("controls: %s has no shadow version to promote", key)
	}
	cp := &ControlPoint{
		ID: prev.ID, Tenant: prev.Tenant, Name: prev.Name,
		Text: prev.shadowText, Version: prev.shadowVersion, compiled: prev.shadow,
	}
	r.controls[key] = cp
	r.gen++ // cached results predate the new live version
	return cp, nil
}

// Rollback discards the shadow candidate, keeping the live version as
// is. Live verdicts are untouched, so cached results stay valid and no
// generation bump (re-evaluation storm) is needed.
func (r *Registry) Rollback(key string) (*ControlPoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.controls[key]
	if prev == nil {
		return nil, fmt.Errorf("controls: unknown control %s", key)
	}
	if prev.shadow == nil {
		return nil, fmt.Errorf("controls: %s has no shadow version to roll back", key)
	}
	cp := *prev
	cp.shadow = nil
	cp.shadowText = ""
	cp.shadowVersion = 0
	r.controls[key] = &cp
	return &cp, nil
}

// observeShadow evaluates a control's shadow candidate (if any) on the
// same graph snapshot its live version just evaluated, and records the
// verdict divergence. The shadow outcome never leaves this function: it
// is counted and sampled, not delivered — shadow mode must be unable to
// alert.
func (r *Registry) observeShadow(cp *ControlPoint, g *provenance.Graph, appID string, live *rules.Result, bindings *rules.BindingCache) {
	if cp.shadow == nil || live == nil {
		return
	}
	var res rules.Result
	err := safeEvaluate(&res, cp.ID, cp.shadow, g, appID, bindings)
	shadowVerdict := ""
	if err != nil {
		shadowVerdict = "error: " + err.Error()
	} else {
		shadowVerdict = res.Verdict.String()
	}
	diverged := err != nil || res.Verdict != live.Verdict

	r.shadowMu.Lock()
	defer r.shadowMu.Unlock()
	r.shadowChecks++
	if !diverged {
		return
	}
	r.shadowDiverged++
	r.shadowByCtrl[cp.ID]++
	r.shadowSeq++
	r.shadowSamples = append(r.shadowSamples, ShadowSample{
		ControlID: cp.ID, AppID: appID,
		Live: live.Verdict.String(), Shadow: shadowVerdict,
		Seq: r.shadowSeq,
	})
	if len(r.shadowSamples) > shadowSampleCap {
		r.shadowSamples = r.shadowSamples[len(r.shadowSamples)-shadowSampleCap:]
	}
}

// ShadowStats snapshots the divergence counters and sample log.
func (r *Registry) ShadowStats() ShadowStats {
	r.mu.RLock()
	n := 0
	for _, cp := range r.controls {
		if cp.shadow != nil {
			n++
		}
	}
	r.mu.RUnlock()

	r.shadowMu.Lock()
	defer r.shadowMu.Unlock()
	st := ShadowStats{
		Controls:    n,
		Checks:      r.shadowChecks,
		Divergences: r.shadowDiverged,
	}
	if len(r.shadowByCtrl) > 0 {
		st.ByControl = make(map[string]uint64, len(r.shadowByCtrl))
		for k, v := range r.shadowByCtrl {
			st.ByControl[k] = v
		}
	}
	st.Samples = append([]ShadowSample(nil), r.shadowSamples...)
	return st
}
