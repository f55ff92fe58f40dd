package audit

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// ManifestVersion identifies the ledger format. Bump when record shapes
// change incompatibly; readers reject unknown versions.
const ManifestVersion = "comap-audit/1"

// Manifest is the first line of every ledger: enough provenance to decide
// whether two ledgers are even comparable (same scenario, seed, options,
// topology) and to explain a mismatch that is config drift rather than
// nondeterminism. Host, GoVersion, GOOS, GOARCH and CreatedUTC are
// informational — Compare reports them but never fails on them.
type Manifest struct {
	Version      string `json:"version"`
	Scenario     string `json:"scenario"`
	Seed         int64  `json:"seed"`
	OptionsFP    string `json:"options_fp"`    // %016x FNV-1a over netsim.Options knobs (excluding Seed)
	Topology     string `json:"topology"`      // topology name, human hint only
	TopologyHash string `json:"topology_hash"` // %016x FNV-1a over nodes+flows
	SliceUs      int64  `json:"slice_us"`
	DeepEvery    int    `json:"deep_every"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	Host         string `json:"host"`
	CreatedUTC   string `json:"created_utc"`
}

// fillEnv stamps the version and the informational environment fields;
// NewLedger calls it.
func (m *Manifest) fillEnv() {
	m.Version = ManifestVersion
	m.GoVersion = runtime.Version()
	m.GOOS = runtime.GOOS
	m.GOARCH = runtime.GOARCH
	if host, err := os.Hostname(); err == nil {
		m.Host = host
	}
	m.CreatedUTC = time.Now().UTC().Format(time.RFC3339)
}

// Comparable reports whether two manifests describe the same run
// configuration, returning a reason when they do not. Environment fields
// are deliberately ignored: ledgers recorded on different hosts or Go
// versions must still compare equal when the simulation is deterministic.
func (m *Manifest) Comparable(o *Manifest) (string, bool) {
	switch {
	case m.Version != o.Version:
		return fmt.Sprintf("ledger version %q vs %q", m.Version, o.Version), false
	case m.Scenario != o.Scenario:
		return fmt.Sprintf("scenario %q vs %q", m.Scenario, o.Scenario), false
	case m.Seed != o.Seed:
		return fmt.Sprintf("seed %d vs %d", m.Seed, o.Seed), false
	case m.OptionsFP != o.OptionsFP:
		return fmt.Sprintf("options fingerprint %s vs %s", m.OptionsFP, o.OptionsFP), false
	case m.TopologyHash != o.TopologyHash:
		return fmt.Sprintf("topology hash %s vs %s (%q vs %q)", m.TopologyHash, o.TopologyHash, m.Topology, o.Topology), false
	case m.SliceUs != o.SliceUs:
		return fmt.Sprintf("slice interval %dus vs %dus", m.SliceUs, o.SliceUs), false
	case m.DeepEvery != o.DeepEvery:
		return fmt.Sprintf("deep-digest cadence %d vs %d", m.DeepEvery, o.DeepEvery), false
	}
	return "", true
}
