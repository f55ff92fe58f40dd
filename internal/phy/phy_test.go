package phy

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDIFS(t *testing.T) {
	if got := DSSS().DIFS(); got != 50*time.Microsecond {
		t.Errorf("DSSS DIFS = %v, want 50µs", got)
	}
	if got := ERPOFDM().DIFS(); got != 28*time.Microsecond {
		t.Errorf("ERP DIFS = %v, want 28µs", got)
	}
}

func TestPayloadAirtimeDSSS(t *testing.T) {
	p := DSSS()
	// 1000 bytes at 1 Mbps = 8000 µs.
	if got := p.PayloadAirtime(RateDSSS1, 1000); got != 8*time.Millisecond {
		t.Errorf("airtime = %v, want 8ms", got)
	}
	// 11 Mbps: 8000 bits / 11e6 = 727.27µs (no symbol rounding in DSSS).
	got := p.PayloadAirtime(RateDSSS11, 1000)
	bits := 8000.0
	want := time.Duration(bits / 11e6 * float64(time.Second))
	if got != want {
		t.Errorf("airtime = %v, want %v", got, want)
	}
}

func TestPayloadAirtimeOFDMSymbolRounding(t *testing.T) {
	p := ERPOFDM()
	// 100 bytes at 6 Mbps = 133.33 µs -> round up to 136 µs (34 symbols).
	got := p.PayloadAirtime(RateOFDM6, 100)
	if got != 136*time.Microsecond {
		t.Errorf("airtime = %v, want 136µs", got)
	}
	// Exactly a symbol boundary must not round up: 3 bytes at 6M = 4µs.
	if got := p.PayloadAirtime(RateOFDM6, 3); got != 4*time.Microsecond {
		t.Errorf("boundary airtime = %v, want 4µs", got)
	}
	// Zero bytes -> zero payload airtime.
	if got := p.PayloadAirtime(RateOFDM6, 0); got != 0 {
		t.Errorf("zero-byte airtime = %v", got)
	}
}

func TestPayloadAirtimeNegativeBytesClamped(t *testing.T) {
	if got := DSSS().PayloadAirtime(RateDSSS1, -5); got != 0 {
		t.Errorf("negative bytes airtime = %v", got)
	}
}

func TestFrameAirtimeIncludesPreamble(t *testing.T) {
	p := DSSS()
	if got := p.FrameAirtime(RateDSSS1, 0); got != p.PreambleHeader {
		t.Errorf("empty frame airtime = %v", got)
	}
	f := func(n uint16) bool {
		b := int(n % 3000)
		return p.FrameAirtime(RateDSSS11, b) == p.PreambleHeader+p.PayloadAirtime(RateDSSS11, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAirtimeMonotoneInBytes(t *testing.T) {
	p := ERPOFDM()
	f := func(a, b uint16) bool {
		x, y := int(a%4000), int(b%4000)
		if x > y {
			x, y = y, x
		}
		return p.DataFrameAirtime(RateOFDM54, x) <= p.DataFrameAirtime(RateOFDM54, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFasterRateShorterAirtime(t *testing.T) {
	p := DSSS()
	p.Rates = append(p.Rates, ERPOFDM().Rates...)
	const bytes = 1500
	for _, a := range p.Rates {
		for _, b := range p.Rates {
			if a.BitsPerSec < b.BitsPerSec &&
				p.PayloadAirtime(a, bytes) <= p.PayloadAirtime(b, bytes) {
				t.Errorf("slower rate %v has airtime <= faster rate %v", a, b)
			}
		}
	}
}

func TestACKAirtimeAndTimeout(t *testing.T) {
	p := DSSS()
	ack := p.ACKAirtime()
	want := p.PreambleHeader + p.PayloadAirtime(p.BasicRate, ACKBytes)
	if ack != want {
		t.Errorf("ACKAirtime = %v, want %v", ack, want)
	}
	if p.ACKTimeout() <= p.SIFS+ack {
		t.Error("ACKTimeout must exceed SIFS+ACK airtime")
	}
}

func TestEIFSExceedsDIFS(t *testing.T) {
	for _, p := range []Params{DSSS(), ERPOFDM(), NS2Table1()} {
		if p.EIFS() <= p.DIFS() {
			t.Errorf("%s: EIFS %v should exceed DIFS %v", p.Name, p.EIFS(), p.DIFS())
		}
	}
}

func TestLowestRate(t *testing.T) {
	if got := DSSS().LowestRate(); got != RateDSSS1 {
		t.Errorf("DSSS lowest = %v", got)
	}
	if got := NS2Table1().LowestRate(); got != RateOFDM6 {
		t.Errorf("NS2 lowest = %v", got)
	}
	empty := Params{BasicRate: RateOFDM6}
	if got := empty.LowestRate(); got != RateOFDM6 {
		t.Errorf("empty rate set lowest = %v", got)
	}
}

func TestRateString(t *testing.T) {
	if RateDSSS11.String() != "11M" {
		t.Errorf("String = %q", RateDSSS11.String())
	}
	anon := Rate{BitsPerSec: 2e6}
	if anon.String() != "2.0Mbps" {
		t.Errorf("anon String = %q", anon.String())
	}
}

func TestRateIsZero(t *testing.T) {
	var r Rate
	if !r.IsZero() {
		t.Error("zero rate should report IsZero")
	}
	if RateOFDM6.IsZero() {
		t.Error("real rate should not report IsZero")
	}
}

func TestSIRThresholdsIncreaseWithRate(t *testing.T) {
	for _, p := range []Params{DSSS(), ERPOFDM()} {
		for i := 1; i < len(p.Rates); i++ {
			if p.Rates[i].MinSIRdB <= p.Rates[i-1].MinSIRdB {
				t.Errorf("%s: rate %v threshold not above %v",
					p.Name, p.Rates[i], p.Rates[i-1])
			}
			if p.Rates[i].SensitivityDBm <= p.Rates[i-1].SensitivityDBm {
				t.Errorf("%s: rate %v sensitivity not above %v",
					p.Name, p.Rates[i], p.Rates[i-1])
			}
		}
	}
}

func TestPaperSIRQuotes(t *testing.T) {
	// §IV-B: "The minimum SINRs of 802.11b are normally 10 dB for 11 Mbps
	// down to 4 dB for 1 Mbps."
	if RateDSSS1.MinSIRdB != 4 {
		t.Errorf("1M threshold = %v, want 4", RateDSSS1.MinSIRdB)
	}
	if RateDSSS11.MinSIRdB != 10 {
		t.Errorf("11M threshold = %v, want 10", RateDSSS11.MinSIRdB)
	}
}

func TestNS2Table1SingleRate(t *testing.T) {
	p := NS2Table1()
	if len(p.Rates) != 1 || p.Rates[0] != RateOFDM6 {
		t.Errorf("NS2Table1 rates = %v, want only 6M", p.Rates)
	}
	if p.NoiseFloorDBm != -95 {
		t.Errorf("noise floor = %v", p.NoiseFloorDBm)
	}
}

func TestACKTimeoutCoversSRAck(t *testing.T) {
	for _, p := range []Params{DSSS(), ERPOFDM(), NS2Table1()} {
		srAck := p.FrameAirtime(p.BasicRate, SRAckBytes)
		if p.ACKTimeout() <= p.SIFS+srAck {
			t.Errorf("%s: ACKTimeout %v does not cover SIFS+SRACK %v",
				p.Name, p.ACKTimeout(), p.SIFS+srAck)
		}
	}
}

func TestNS2Table1Timings(t *testing.T) {
	p := NS2Table1()
	// ERP-OFDM short slot.
	if p.SlotTime != 9*time.Microsecond || p.DIFS() != 28*time.Microsecond {
		t.Errorf("slot/DIFS = %v/%v", p.SlotTime, p.DIFS())
	}
	// A 1000-byte data frame at 6 Mbps: 20µs preamble + ceil(1028*8/24)=343
	// symbols... airtime ≈ 1391µs.
	air := p.DataFrameAirtime(RateOFDM6, 1000)
	if air < 1350*time.Microsecond || air > 1420*time.Microsecond {
		t.Errorf("1000B@6M airtime = %v", air)
	}
}
