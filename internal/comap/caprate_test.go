package comap

import (
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/phy"
)

func dsssRates() []phy.Rate {
	return []phy.Rate{phy.RateDSSS1, phy.RateDSSS2, phy.RateDSSS5, phy.RateDSSS11}
}

func TestCapRateWithoutRatesPassesThrough(t *testing.T) {
	a := NewAgent(1, testbedModel(), loc.Static{})
	if got := a.CapRate(2, 10, 11, phy.RateDSSS11); got != phy.RateDSSS11 {
		t.Errorf("CapRate = %v", got)
	}
}

func TestCapRateUnknownPositionPassesThrough(t *testing.T) {
	a := NewAgent(1, testbedModel(), loc.Static{1: geom.Pt(0, 0)})
	a.SetRates(dsssRates())
	if got := a.CapRate(2, 10, 11, phy.RateDSSS11); got != phy.RateDSSS11 {
		t.Errorf("CapRate = %v", got)
	}
}

func TestCapRateScalesWithInterfererDistance(t *testing.T) {
	// Fixed 8 m link; the interferer moves away; the cap must climb through
	// the rate set.
	positions := loc.Static{
		1:  geom.Pt(0, 0), // me
		11: geom.Pt(8, 0), // my receiver
	}
	a := NewAgent(1, testbedModel(), positions)
	a.SetRates(dsssRates())

	prev := 0.0
	for _, d := range []float64{12, 20, 40, 120} {
		positions[2] = geom.Pt(8+d, 0) // interferer d meters beyond the receiver
		got := a.CapRate(2, 99, 11, phy.RateDSSS11)
		if got.BitsPerSec < prev {
			t.Errorf("cap decreased as interferer moved to %v m: %v", d, got)
		}
		prev = got.BitsPerSec
	}
	// Far interferer: full requested rate.
	if prev != phy.RateDSSS11.BitsPerSec {
		t.Errorf("far-interferer cap = %v bps, want 11M", prev)
	}
	// Near interferer: the slowest rate (the validated fallback).
	positions[2] = geom.Pt(10, 0)
	if got := a.CapRate(2, 99, 11, phy.RateDSSS11); got != phy.RateDSSS1 {
		t.Errorf("near-interferer cap = %v, want 1M", got)
	}
}

func TestCapRateNeverExceedsChosen(t *testing.T) {
	positions := loc.Static{
		1:  geom.Pt(0, 0),
		11: geom.Pt(8, 0),
		2:  geom.Pt(500, 0), // harmless interferer
	}
	a := NewAgent(1, testbedModel(), positions)
	a.SetRates(dsssRates())
	if got := a.CapRate(2, 99, 11, phy.RateDSSS2); got.BitsPerSec > phy.RateDSSS2.BitsPerSec {
		t.Errorf("cap %v exceeds Minstrel's choice 2M", got)
	}
}

func TestObserveLinkExpiry(t *testing.T) {
	positions := loc.Static{
		1:  geom.Pt(0, 0),
		11: geom.Pt(8, 0),
		5:  geom.Pt(100, 0),
		12: geom.Pt(108, 0),
	}
	a := NewAgent(1, testbedModel(), positions)
	a.ObserveLink(5, 12, 0)
	if !a.PersistentConcurrencyOK(11, 100*time.Millisecond) {
		t.Error("well-separated observed link should allow persistence")
	}
	// After the max age the link expires; with nothing active, persistence
	// is pointless (and disabled).
	if a.PersistentConcurrencyOK(11, 10*time.Second) {
		t.Error("expired links should disable persistence")
	}
}

func TestPersistentConcurrencyBlockedByOwnTraffic(t *testing.T) {
	positions := loc.Static{
		1:  geom.Pt(0, 0),
		11: geom.Pt(8, 0),
		5:  geom.Pt(100, 0),
	}
	a := NewAgent(1, testbedModel(), positions)
	// A link whose destination is me: someone is sending to me; I must not
	// bypass carrier sense.
	a.ObserveLink(5, 1, 0)
	if a.PersistentConcurrencyOK(11, time.Millisecond) {
		t.Error("inbound link must block persistence")
	}
	// A link transmitted BY my receiver: it cannot receive me while sending.
	b := NewAgent(1, testbedModel(), positions)
	b.ObserveLink(11, 5, 0)
	if b.PersistentConcurrencyOK(11, time.Millisecond) {
		t.Error("receiver-originated link must block persistence")
	}
}

func TestPersistentConcurrencyBlockedByUnsafeLink(t *testing.T) {
	positions := loc.Static{
		1:  geom.Pt(0, 0),
		11: geom.Pt(8, 0),
		5:  geom.Pt(12, 0), // close to my receiver: cannot coexist
		12: geom.Pt(20, 0),
	}
	a := NewAgent(1, testbedModel(), positions)
	a.ObserveLink(5, 12, 0)
	if a.PersistentConcurrencyOK(11, time.Millisecond) {
		t.Error("unsafe link must block persistence")
	}
}

var _ = frame.Broadcast

func TestRateEconomyDeniesCripplingOverlap(t *testing.T) {
	// The geometry passes the PRR validation at the lowest rate but only
	// supports 1 Mbps concurrently, while the link alone runs 11 Mbps: the
	// economy check must deny concurrency.
	positions := loc.Static{
		1:  geom.Pt(0, 0),  // me
		11: geom.Pt(8, 0),  // my receiver: alone-rate 11M
		5:  geom.Pt(31, 0), // ongoing sender: 23 m from my receiver
		12: geom.Pt(25, 0), // its receiver: a short 6 m hop
	}
	model := testbedModel()
	model.TPRR = 0.5 // permissive validation to isolate the economy check
	a := NewAgent(1, model, positions)
	if !a.judge.Model.Coexist(positions, 5, 12, 1, 11) {
		t.Fatal("setup: PRR validation should pass at TPRR=0.5")
	}
	a.SetRates(dsssRates())
	if a.Allowed(5, 12, 11) {
		t.Error("economy check should deny a 1M-only overlap on an 11M link")
	}
	// Without a rate set the economy check is skipped and validation rules.
	b := NewAgent(1, model, positions)
	if !b.Allowed(5, 12, 11) {
		t.Error("without rates, the PRR validation alone should allow")
	}
}

func TestRateEconomyUnknownPositionDenies(t *testing.T) {
	a := NewAgent(1, testbedModel(), loc.Static{1: geom.Pt(0, 0), 11: geom.Pt(8, 0)})
	a.SetRates(dsssRates())
	if a.judge.rateEconomical(a.fixFn, 1, 11, 99) {
		t.Error("unknown interferer position must fail the economy check")
	}
}
