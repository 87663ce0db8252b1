package controls

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/rules"
)

// persistedControl is the on-disk form of one deployed control. Only
// controls compiled from text persist; any other Evaluator is built in Go
// and belongs to the embedding program. A shadow candidate persists alongside
// its live version so a restart does not silently abort a rollout.
type persistedControl struct {
	ID            string `json:"id"`
	Tenant        string `json:"tenant,omitempty"`
	Name          string `json:"name"`
	Text          string `json:"text"`
	Version       int    `json:"version"`
	ShadowText    string `json:"shadowText,omitempty"`
	ShadowVersion int    `json:"shadowVersion,omitempty"`
}

// SaveTo writes every text-deployed control to path atomically, so a
// restarted server can restore the control set the business users built
// up — deployment is durable without touching application code.
func (r *Registry) SaveTo(path string) error {
	r.mu.RLock()
	var out []persistedControl
	for _, id := range r.order {
		cp := r.controls[id]
		if _, ok := cp.compiled.(*rules.Control); !ok {
			continue
		}
		out = append(out, persistedControl{
			ID: cp.ID, Tenant: cp.Tenant, Name: cp.Name, Text: cp.Text, Version: cp.Version,
			ShadowText: cp.shadowText, ShadowVersion: cp.shadowVersion,
		})
	}
	r.mu.RUnlock()

	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("controls: save: %v", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("controls: save: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("controls: save: %v", err)
	}
	return nil
}

// LoadFrom deploys every control recorded at path, recompiling each text
// against the current vocabulary. Existing IDs are redeployed (their
// version advances past the stored one); a missing file is not an error.
// It returns the number of controls restored.
func (r *Registry) LoadFrom(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("controls: load: %v", err)
	}
	var in []persistedControl
	if err := json.Unmarshal(raw, &in); err != nil {
		return 0, fmt.Errorf("controls: load: %v", err)
	}
	restored := 0
	for _, pc := range in {
		// pc.ID is the registry key (already tenant-qualified); compile
		// and install it directly under its recorded tenant.
		compiled, err := rules.Compile(pc.Text, r.vocab)
		if err != nil {
			return restored, fmt.Errorf("controls: load %s: %v", pc.ID, err)
		}
		cp, err := r.deployEvaluator(pc.Tenant, pc.ID, pc.Name, compiled, pc.Text)
		if err != nil {
			return restored, fmt.Errorf("controls: load %s: %v", pc.ID, err)
		}
		// Preserve monotone versions across restarts: a control that was
		// at version 5 must not restart at 1.
		r.mu.Lock()
		if cp.Version < pc.Version {
			cp.Version = pc.Version
		}
		r.mu.Unlock()
		if pc.ShadowText != "" {
			scp, err := r.DeployShadow(pc.ID, pc.ShadowText)
			if err != nil {
				return restored, fmt.Errorf("controls: load shadow %s: %v", pc.ID, err)
			}
			r.mu.Lock()
			if scp.shadowVersion < pc.ShadowVersion {
				scp.shadowVersion = pc.ShadowVersion
			}
			r.mu.Unlock()
		}
		restored++
	}
	return restored, nil
}
