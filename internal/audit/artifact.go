package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"qlec/internal/obs"
	"qlec/internal/sim"
)

// ArtifactVersion is the schema version WriteArtifact stamps and
// ReadArtifact requires. Version 2 dropped the decision records'
// "greedy" field, which always equaled "chosen".
const ArtifactVersion = 2

// Artifact is the self-contained audit file: the summary report plus
// the retained ledger and decision records, stamped with the build
// that produced it. It is what `qlecsim -audit` writes, what qlecd
// serves at /v1/jobs/{id}/audit, and what cmd/qlecaudit consumes.
type Artifact struct {
	Version   int               `json:"version"`
	Build     obs.BuildInfo     `json:"build"`
	Report    Report            `json:"report"`
	Ledger    []sim.EnergyEntry `json:"ledger"`
	Decisions []DecisionRecord  `json:"decisions"`
}

// Artifact snapshots the recorder. Call after the run completes.
func (r *Recorder) Artifact() *Artifact {
	return &Artifact{
		Version:   ArtifactVersion,
		Build:     obs.Version(),
		Report:    r.Report(),
		Ledger:    r.Ledger(),
		Decisions: r.Decisions(),
	}
}

// WriteArtifact writes the artifact as indented JSON.
func WriteArtifact(w io.Writer, a *Artifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("audit: write artifact: %w", err)
	}
	return nil
}

// ReadArtifact parses an artifact: exactly one JSON value, of the
// schema version this build writes. Anything but whitespace after the
// value is an error.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("audit: parse artifact: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("audit: parse artifact: trailing data after the JSON value")
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("audit: artifact version %d, this build reads %d", a.Version, ArtifactVersion)
	}
	return &a, nil
}

// ExplainNode returns the decision records for one node, optionally
// restricted to one round (round < 0 means all rounds).
func (a *Artifact) ExplainNode(node, round int) []DecisionRecord {
	var out []DecisionRecord
	for _, d := range a.Decisions {
		if d.Node == node && (round < 0 || d.Round == round) {
			out = append(out, d)
		}
	}
	return out
}
