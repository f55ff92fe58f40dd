// Package phy models the IEEE 802.11 physical layers used by the CO-MAP
// evaluation: the 802.11b DSSS and 802.11g ERP-OFDM rate sets, per-rate SIR
// decoding thresholds and receiver sensitivities, and frame airtime
// computation.
//
// The paper's testbed runs 802.11b/g with Minstrel rate adaptation; the NS-2
// large-scale evaluation uses a fixed 6 Mbps rate (Table I).
package phy

import (
	"fmt"
	"time"
)

// Rate describes one modulation/coding point of a PHY.
type Rate struct {
	// Name is a short human-readable label, e.g. "11M".
	Name string
	// BitsPerSec is the nominal data rate.
	BitsPerSec float64
	// MinSIRdB is the minimum signal-to-interference(+noise) ratio required
	// to decode a frame at this rate. The paper quotes 10 dB for 11 Mbps down
	// to 4 dB for 1 Mbps 802.11b.
	MinSIRdB float64
	// SensitivityDBm is the minimum received power for the radio to lock onto
	// a frame at this rate.
	SensitivityDBm float64
}

// IsZero reports whether the rate is the zero value.
func (r Rate) IsZero() bool { return r.BitsPerSec == 0 }

// String implements fmt.Stringer.
func (r Rate) String() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("%.1fMbps", r.BitsPerSec/1e6)
}

// DSSS (802.11b) rates with the SIR thresholds quoted in the paper (§IV-B)
// and typical commodity sensitivities.
var (
	RateDSSS1  = Rate{Name: "1M", BitsPerSec: 1e6, MinSIRdB: 4, SensitivityDBm: -94}
	RateDSSS2  = Rate{Name: "2M", BitsPerSec: 2e6, MinSIRdB: 6, SensitivityDBm: -91}
	RateDSSS5  = Rate{Name: "5.5M", BitsPerSec: 5.5e6, MinSIRdB: 8, SensitivityDBm: -87}
	RateDSSS11 = Rate{Name: "11M", BitsPerSec: 11e6, MinSIRdB: 10, SensitivityDBm: -82}
)

// ERP-OFDM (802.11g) rates with typical thresholds/sensitivities.
var (
	RateOFDM6  = Rate{Name: "6M", BitsPerSec: 6e6, MinSIRdB: 6, SensitivityDBm: -90}
	RateOFDM9  = Rate{Name: "9M", BitsPerSec: 9e6, MinSIRdB: 8, SensitivityDBm: -89}
	RateOFDM12 = Rate{Name: "12M", BitsPerSec: 12e6, MinSIRdB: 9, SensitivityDBm: -86}
	RateOFDM18 = Rate{Name: "18M", BitsPerSec: 18e6, MinSIRdB: 11, SensitivityDBm: -83}
	RateOFDM24 = Rate{Name: "24M", BitsPerSec: 24e6, MinSIRdB: 17, SensitivityDBm: -80}
	RateOFDM36 = Rate{Name: "36M", BitsPerSec: 36e6, MinSIRdB: 19, SensitivityDBm: -76}
	RateOFDM48 = Rate{Name: "48M", BitsPerSec: 48e6, MinSIRdB: 24, SensitivityDBm: -71}
	RateOFDM54 = Rate{Name: "54M", BitsPerSec: 54e6, MinSIRdB: 25, SensitivityDBm: -69}
)

// MAC-level frame size constants (bytes), per IEEE 802.11-2007.
const (
	// MACHeaderBytes is a three-address data header (24) plus FCS (4).
	MACHeaderBytes = 28
	// ACKBytes is the size of an ACK control frame including FCS.
	ACKBytes = 14
	// SRAckBytes is the size of a selective-repeat ACK (ACK plus cumulative
	// sequence number and 32-bit bitmap, paper §IV-C4).
	SRAckBytes = 20
	// ComapHeaderBytes is the CO-MAP discovery header: source and destination
	// addresses (12) plus its own FCS (4). See paper §V ("Implementation of
	// header").
	ComapHeaderBytes = 16
)

// Params gathers the timing and channel-access parameters of one PHY flavor.
type Params struct {
	// Name identifies the parameter set, e.g. "DSSS" or "ERP-OFDM".
	Name string
	// SlotTime is the backoff slot duration.
	SlotTime time.Duration
	// SIFS separates a data frame from its ACK.
	SIFS time.Duration
	// PreambleHeader is the PLCP preamble plus PLCP header airtime prepended
	// to every frame.
	PreambleHeader time.Duration
	// SymbolTime, when non-zero, rounds payload airtime up to a whole number
	// of OFDM symbols.
	SymbolTime time.Duration
	// CWMin and CWMax bound the binary-exponential contention window.
	CWMin, CWMax int
	// BasicRate is used for ACKs and for the CO-MAP discovery header.
	BasicRate Rate
	// Rates is the rate set available to rate adaptation, slowest first.
	Rates []Rate
	// NoiseFloorDBm is the receiver noise floor.
	NoiseFloorDBm float64
}

// DIFS is SIFS + 2 slot times, per the DCF specification.
func (p Params) DIFS() time.Duration { return p.SIFS + 2*p.SlotTime }

// EIFS is the extended interframe space used after an errored reception:
// SIFS + ACK airtime at the basic rate + DIFS.
func (p Params) EIFS() time.Duration {
	return p.SIFS + p.FrameAirtime(p.BasicRate, ACKBytes) + p.DIFS()
}

// PayloadAirtime returns the time to transmit the given number of bytes at
// the given rate, excluding the PLCP preamble/header, rounded up to a whole
// symbol when the PHY is symbol-based.
func (p Params) PayloadAirtime(r Rate, bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	bits := float64(bytes * 8)
	d := time.Duration(bits / r.BitsPerSec * float64(time.Second))
	if p.SymbolTime > 0 && d > 0 {
		if rem := d % p.SymbolTime; rem != 0 {
			d += p.SymbolTime - rem
		}
	}
	return d
}

// FrameAirtime returns the full airtime of a frame of the given size:
// preamble/PLCP header plus payload bits.
func (p Params) FrameAirtime(r Rate, bytes int) time.Duration {
	return p.PreambleHeader + p.PayloadAirtime(r, bytes)
}

// DataFrameAirtime returns the airtime of a data frame carrying payloadBytes
// of application payload behind a standard MAC header.
func (p Params) DataFrameAirtime(r Rate, payloadBytes int) time.Duration {
	return p.FrameAirtime(r, MACHeaderBytes+payloadBytes)
}

// ACKAirtime returns the airtime of an ACK at the basic rate.
func (p Params) ACKAirtime() time.Duration {
	return p.FrameAirtime(p.BasicRate, ACKBytes)
}

// ACKTimeout is how long a transmitter waits for an ACK before declaring
// loss: SIFS + the airtime of the largest acknowledgement (a selective-repeat
// ACK) + one slot of scheduling slack.
func (p Params) ACKTimeout() time.Duration {
	return p.SIFS + p.FrameAirtime(p.BasicRate, SRAckBytes) + p.SlotTime
}

// LowestRate returns the slowest rate in the rate set; it is the rate whose
// SIR threshold CO-MAP uses for conservative concurrency validation.
func (p Params) LowestRate() Rate {
	if len(p.Rates) == 0 {
		return p.BasicRate
	}
	low := p.Rates[0]
	for _, r := range p.Rates[1:] {
		if r.BitsPerSec < low.BitsPerSec {
			low = r
		}
	}
	return low
}

// DSSS returns the 802.11b HR/DSSS parameter set with the short PLCP
// preamble (96 µs) and a 2 Mbps basic rate for control responses, as
// commodity b/g NICs negotiate in practice.
func DSSS() Params {
	return Params{
		Name:           "DSSS",
		SlotTime:       20 * time.Microsecond,
		SIFS:           10 * time.Microsecond,
		PreambleHeader: 96 * time.Microsecond,
		CWMin:          31,
		CWMax:          1023,
		BasicRate:      RateDSSS2,
		Rates:          []Rate{RateDSSS1, RateDSSS2, RateDSSS5, RateDSSS11},
		NoiseFloorDBm:  -95,
	}
}

// ERPOFDM returns the 802.11g-only ERP-OFDM parameter set (short slot).
func ERPOFDM() Params {
	return Params{
		Name:           "ERP-OFDM",
		SlotTime:       9 * time.Microsecond,
		SIFS:           10 * time.Microsecond,
		PreambleHeader: 20 * time.Microsecond,
		SymbolTime:     4 * time.Microsecond,
		CWMin:          15,
		CWMax:          1023,
		BasicRate:      RateOFDM6,
		Rates: []Rate{
			RateOFDM6, RateOFDM9, RateOFDM12, RateOFDM18,
			RateOFDM24, RateOFDM36, RateOFDM48, RateOFDM54,
		},
		NoiseFloorDBm: -95,
	}
}

// NS2Table1 returns the parameter set of the paper's Table I: fixed 6 Mbps
// data rate over the 2.4 GHz band.
func NS2Table1() Params {
	p := ERPOFDM()
	p.Name = "NS-2 Table I"
	p.Rates = []Rate{RateOFDM6}
	return p
}
