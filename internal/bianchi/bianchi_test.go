package bianchi

import (
	"math"
	"testing"
	"time"

	"repro/internal/phy"
)

func baseParams() Params {
	p := FromPHY(phy.DSSS(), phy.RateDSSS11)
	p.W = 63
	p.Contenders = 5
	return p
}

func TestTau(t *testing.T) {
	p := baseParams()
	p.W = 63
	if got := p.Tau(); math.Abs(got-2.0/64.0) > 1e-12 {
		t.Errorf("Tau = %v", got)
	}
	p.W = 1
	if got := p.Tau(); got != 1 {
		t.Errorf("Tau(W=1) = %v, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	good := baseParams()
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		func() Params { p := baseParams(); p.W = 0; return p }(),
		func() Params { p := baseParams(); p.Contenders = -1; return p }(),
		func() Params { p := baseParams(); p.Hidden = -2; return p }(),
		func() Params { p := baseParams(); p.DataRate = 0; return p }(),
		func() Params { p := baseParams(); p.Slot = 0; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestTimingComponents(t *testing.T) {
	p := baseParams()
	ph := phy.DSSS()
	wantHdr := ph.PreambleHeader + ph.PayloadAirtime(phy.RateDSSS11, phy.MACHeaderBytes)
	if p.HeaderTime != wantHdr {
		t.Errorf("HeaderTime = %v, want %v", p.HeaderTime, wantHdr)
	}
	// T_s - T_c = SIFS + ACK.
	if p.SuccessTime(1000)-p.CollisionTime(1000) != p.SIFS+p.ACKTime {
		t.Error("T_s - T_c must equal SIFS + ACK")
	}
	// Larger payload, longer times.
	if p.SuccessTime(1500) <= p.SuccessTime(100) {
		t.Error("SuccessTime must grow with payload")
	}
}

func TestGoodputPositiveAndBounded(t *testing.T) {
	p := baseParams()
	for _, h := range []int{0, 1, 3, 5, 10} {
		p.Hidden = h
		for _, l := range []int{50, 500, 1000, 1500} {
			g := p.Goodput(l)
			if g <= 0 {
				t.Errorf("h=%d l=%d: goodput %v not positive", h, l, g)
			}
			if g >= p.DataRate {
				t.Errorf("h=%d l=%d: goodput %v exceeds channel rate", h, l, g)
			}
		}
	}
}

func TestGoodputZeroForDegenerateInput(t *testing.T) {
	p := baseParams()
	if p.Goodput(0) != 0 || p.Goodput(-5) != 0 {
		t.Error("non-positive payload must give 0 goodput")
	}
	p.W = 0
	if p.Goodput(1000) != 0 {
		t.Error("invalid params must give 0 goodput")
	}
}

func TestHiddenTerminalsReduceGoodput(t *testing.T) {
	p := baseParams()
	prev := math.Inf(1)
	for _, h := range []int{0, 1, 3, 5, 8} {
		p.Hidden = h
		g := p.Goodput(1000)
		if g >= prev {
			t.Errorf("goodput did not decrease at h=%d: %v >= %v", h, g, prev)
		}
		prev = g
	}
}

func TestNoHiddenLargestPayloadWins(t *testing.T) {
	// Paper: "The highest goodput of a link without HT is achieved with the
	// largest payload length."
	p := baseParams()
	p.Hidden = 0
	best := OptimalSetting(p, []int{p.W}, nil)
	if best.PayloadBytes != 1500 {
		t.Errorf("best payload without HT = %d, want 1500", best.PayloadBytes)
	}
}

func TestManyHiddenPreferSmallerPayload(t *testing.T) {
	// Paper: "when the number of HTs is large, a small payload length should
	// be used to shorten the channel occupancy time."
	p := baseParams()
	p.Hidden = 0
	bestNoHT := OptimalSetting(p, []int{63}, nil)
	p.Hidden = 8
	bestManyHT := OptimalSetting(p, []int{63}, nil)
	if bestManyHT.PayloadBytes >= bestNoHT.PayloadBytes {
		t.Errorf("payload with 8 HTs (%d) should be below payload with none (%d)",
			bestManyHT.PayloadBytes, bestNoHT.PayloadBytes)
	}
}

func TestHiddenTerminalsPreferLargerWindow(t *testing.T) {
	// Paper: "When the number of HTs increases, CW size should be set to the
	// maximum value to slow down the transmission of all nodes."
	p := baseParams()
	p.Hidden = 5
	best := OptimalSetting(p, nil, nil)
	p.Hidden = 0
	bestNoHT := OptimalSetting(p, nil, nil)
	if best.W <= bestNoHT.W {
		t.Errorf("W with 5 HTs (%d) should exceed W with none (%d)", best.W, bestNoHT.W)
	}
}

func TestSuccessProbabilityMonotoneInHidden(t *testing.T) {
	p := baseParams()
	prev := 1.0
	for h := 0; h <= 10; h++ {
		p.Hidden = h
		ps := p.SuccessProbability(1000)
		if ps < 0 || ps > 1 {
			t.Fatalf("h=%d: P_s = %v out of range", h, ps)
		}
		if ps > prev {
			t.Errorf("P_s increased at h=%d", h)
		}
		prev = ps
	}
}

func TestSlotLengthBounds(t *testing.T) {
	p := baseParams()
	e := p.SlotLength(1000)
	if e < p.Slot {
		t.Errorf("E[slot] %v below empty slot %v", e, p.Slot)
	}
	if e > p.SuccessTime(1000) {
		t.Errorf("E[slot] %v above T_s %v", e, p.SuccessTime(1000))
	}
	// Zero contenders and W=1: every slot is a guaranteed transmission.
	p.Contenders = 0
	p.W = 1
	if got := p.SlotLength(1000); got != p.SuccessTime(1000) {
		t.Errorf("deterministic slot = %v, want T_s %v", got, p.SuccessTime(1000))
	}
}

func TestSingleStationGoodputNearChannelEfficiency(t *testing.T) {
	// One saturated station, no contenders, W=2: goodput should approach
	// payload/(T_s + small backoff overhead).
	p := baseParams()
	p.Contenders = 0
	p.W = 2
	g := p.Goodput(1000)
	ideal := float64(1000*8) / p.SuccessTime(1000).Seconds()
	if g > ideal {
		t.Errorf("goodput %v exceeds ideal %v", g, ideal)
	}
	if g < 0.5*ideal {
		t.Errorf("goodput %v below half of ideal %v", g, ideal)
	}
}

func TestOptimalSettingUsesDefaults(t *testing.T) {
	p := baseParams()
	s := OptimalSetting(p, nil, nil)
	if s.GoodputBps <= 0 {
		t.Fatal("no setting found")
	}
	found := false
	for _, w := range DefaultWindows {
		if s.W == w {
			found = true
		}
	}
	if !found {
		t.Errorf("W=%d not from default grid", s.W)
	}
	if s.PayloadBytes < 50 || s.PayloadBytes > 1500 {
		t.Errorf("payload %d outside default grid", s.PayloadBytes)
	}
}

func TestAdaptationTable(t *testing.T) {
	base := FromPHY(phy.DSSS(), phy.RateDSSS11)
	tbl := NewAdaptationTable(base, 3, 6, []int{63, 255, 1023}, []int{100, 500, 1000, 1500})
	if h, c := len(tbl.settings)-1, len(tbl.settings[0])-1; h != 3 || c != 6 {
		t.Fatalf("dims = %d x %d", h, c)
	}
	s := tbl.Lookup(0, 5)
	if s.GoodputBps <= 0 {
		t.Error("empty setting in table")
	}
	// Clamping.
	if got := tbl.Lookup(99, 99); got != tbl.Lookup(3, 6) {
		t.Error("out-of-range lookup should clamp")
	}
	if got := tbl.Lookup(-1, -1); got != tbl.Lookup(0, 0) {
		t.Error("negative lookup should clamp to 0")
	}
	// More hidden terminals must not increase the chosen payload.
	for c := 0; c <= 6; c++ {
		if tbl.Lookup(3, c).PayloadBytes > tbl.Lookup(0, c).PayloadBytes {
			t.Errorf("c=%d: payload grows with hidden terminals", c)
		}
	}
}

func TestDefaultPayloadsGrid(t *testing.T) {
	g := DefaultPayloads()
	if len(g) != 30 || g[0] != 50 || g[len(g)-1] != 1500 {
		t.Errorf("grid = %v", g)
	}
}

func TestPaperFig7Shape(t *testing.T) {
	// Fig. 7 qualitative checks with c=5 contenders:
	// (a) no HT: goodput increases with payload for every W, and W=63 beats
	//     W=1023 at large payloads (small window wastes less idle time);
	// (c) 5 HTs: the best payload for W=63 is interior (not the maximum).
	base := baseParams()

	base.Hidden = 0
	for _, w := range []int{63, 255, 1023} {
		p := base
		p.W = w
		if p.Goodput(1500) <= p.Goodput(100) {
			t.Errorf("no-HT goodput not increasing with payload at W=%d", w)
		}
	}
	p63, p1023 := base, base
	p63.W, p1023.W = 63, 1023
	if p63.Goodput(1500) <= p1023.Goodput(1500) {
		t.Error("without HTs, W=63 should beat W=1023")
	}

	base.Hidden = 5
	p := base
	p.W = 63
	bestL, bestG := 0, 0.0
	for l := 50; l <= 1500; l += 50 {
		if g := p.Goodput(l); g > bestG {
			bestL, bestG = l, g
		}
	}
	if bestL == 1500 {
		t.Error("with 5 HTs the optimum payload should be interior, got 1500")
	}
	if bestL < 50 {
		t.Error("degenerate optimum")
	}
}

func TestGoodputContinuityAcrossSlotRounding(t *testing.T) {
	// The model uses continuous time; goodput must vary smoothly (no jumps
	// from duration rounding).
	p := baseParams()
	prev := p.Goodput(1000)
	for l := 1001; l <= 1010; l++ {
		g := p.Goodput(l)
		if math.Abs(g-prev)/prev > 0.01 {
			t.Errorf("goodput jumped at l=%d: %v -> %v", l, prev, g)
		}
		prev = g
	}
}

func TestSlotLengthIsFinite(t *testing.T) {
	p := baseParams()
	p.W = 1 // tau = 1: always a collision with contenders present
	e := p.SlotLength(1000)
	if e <= 0 || e > time.Second {
		t.Errorf("slot length = %v", e)
	}
}
