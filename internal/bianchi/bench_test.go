package bianchi

import (
	"testing"

	"repro/internal/phy"
)

// BenchmarkTableIAdaptationTable builds CO-MAP's (hidden, contender)
// adaptation table over the paper's Table I parameters.
func BenchmarkTableIAdaptationTable(b *testing.B) {
	base := FromPHY(phy.NS2Table1(), phy.RateOFDM6)
	for i := 0; i < b.N; i++ {
		tbl := NewAdaptationTable(base, 5, 8, nil, nil)
		if tbl.Lookup(3, 5).GoodputBps <= 0 {
			b.Fatal("empty adaptation-table entry")
		}
	}
}

// BenchmarkGoodput evaluates the hidden-terminal goodput model once.
func BenchmarkGoodput(b *testing.B) {
	p := FromPHY(phy.NS2Table1(), phy.RateOFDM6)
	p.W = 255
	p.Contenders = 5
	p.Hidden = 3
	for i := 0; i < b.N; i++ {
		if p.Goodput(1000) <= 0 {
			b.Fatal("zero goodput")
		}
	}
}
