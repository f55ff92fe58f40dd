// Package goldenscn is the shared registry of golden fixture scenarios:
// the fixed (topology, options) runs whose reports — and, since the audit
// plane, determinism ledgers — are pinned as checked-in goldens. The
// netsim golden suites and cmd/comap-audit (verify/bisect re-run scenarios
// by name) both resolve scenarios here, so a ledger's manifest scenario
// name is always reproducible from the binary alone.
package goldenscn

import (
	"time"

	"repro/internal/bianchi"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Scenario is one fixed golden run.
type Scenario struct {
	Name string
	Top  topology.Topology
	Opts netsim.Options
}

// All returns the golden fixture scenarios. The chh role string (one
// contender, two hidden terminals) is the same fixture the trace analyzer's
// goldens are built on.
func All() []Scenario {
	chh := topology.HTRoles([]topology.Role{
		topology.RoleContender, topology.RoleHidden, topology.RoleHidden,
	})

	dcf := netsim.NS2Options()
	dcf.Protocol = netsim.ProtocolDCF
	dcf.Seed = 7
	dcf.Duration = time.Second

	cm := netsim.NS2Options()
	cm.Protocol = netsim.ProtocolComap
	base := bianchi.FromPHY(cm.PHY, cm.PHY.LowestRate())
	cm.AdaptTable = bianchi.NewAdaptationTable(base, 5, 8, nil, nil)
	cm.Seed = 7
	cm.Duration = time.Second

	spec, err := faults.Parse("locloss:p=0.3;outage:node=2,at=300ms,dur=200ms")
	if err != nil {
		panic(err)
	}
	faulted := cm
	faulted.Faults = spec

	// The CBR+churn pair runs Table I's 3 Mbps CBR streams with the
	// contender (node 2) away for one window, so the stream scheduler's
	// credit bucket and its pause/resume paths are pinned too.
	churn, err := faults.Parse("churn:node=2,at=300ms,dur=300ms")
	if err != nil {
		panic(err)
	}
	dcfCBR := dcf
	dcfCBR.CBRBitsPerSec = 3e6
	dcfCBR.Faults = churn
	cmCBR := cm
	cmCBR.CBRBitsPerSec = 3e6
	cmCBR.Faults = churn

	et := netsim.TestbedOptions()
	et.Protocol = netsim.ProtocolComap
	et.Seed = 11
	et.Duration = time.Second

	return []Scenario{
		{Name: "chh-dcf", Top: chh, Opts: dcf},
		{Name: "chh-comap", Top: chh, Opts: cm},
		{Name: "chh-comap-faulted", Top: chh, Opts: faulted},
		{Name: "et30-comap", Top: topology.ETSweep(30), Opts: et},
		{Name: "chh-dcf-cbr-churn", Top: chh, Opts: dcfCBR},
		{Name: "chh-comap-cbr-churn", Top: chh, Opts: cmCBR},
	}
}

// Get resolves a scenario by name.
func Get(name string) (Scenario, bool) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Names lists the registered scenario names in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, sc := range all {
		out[i] = sc.Name
	}
	return out
}
