package comap

import (
	"math"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/phy"
)

// FixFunc resolves a node's last committed fix; the bool is false when the
// node has none. Both the agent's provider view and the mapsvc control
// plane's fix table are exposed through it, so verdicts computed on either
// side of the client/server boundary run the identical code path — the
// remote service stays a byte-exact oracle for the in-process computation.
type FixFunc func(id frame.NodeID) (loc.Fix, bool)

// fixView adapts a FixFunc to loc.Provider for the Model's position-only
// geometry checks.
type fixView struct{ f FixFunc }

func (v fixView) Position(id frame.NodeID) (geom.Point, bool) {
	fx, ok := v.f(id)
	return fx.Pos, ok
}

// Judge is the pure ET/HT verdict calculator extracted from Agent: the
// paper's eq.-(3) coexistence validation, the rate-economy refinement, and
// the location-health gating, all over an abstract fix table. It holds no
// mutable state — Agent decides through its own Judge over its provider's
// fixes, and mapsvc.Service evaluates the same Judge against its ingested
// fixes.
type Judge struct {
	Model Model
	Rates []phy.Rate
	// Now supplies virtual time for fix-age computation, and is the
	// location-health gate's one switch: a Judge with a clock gates on
	// MaxFixAge, adds the staleness margin and evaluates worst-case
	// geometry; a nil clock trusts every fix.
	Now func() time.Duration
}

func (j Judge) healthEnabled() bool { return j.Now != nil }

// FixHealth summarises the health of the given peers' fixes: oldest age and
// largest error radius. healthy is false when any peer has no fix or a fix
// older than the confidence bound; disabled gating always reports healthy.
func (j Judge) FixHealth(fixes FixFunc, ids ...frame.NodeID) (maxAge time.Duration, maxErr float64, healthy bool) {
	if !j.healthEnabled() {
		return 0, 0, true
	}
	now := j.Now()
	healthy = true
	for _, id := range ids {
		fix, ok := fixes(id)
		if !ok {
			return maxAge, maxErr, false
		}
		var age time.Duration
		if fix.ReportedAt >= 0 {
			age = now - fix.ReportedAt
			if age < 0 {
				age = 0
			}
		}
		if age > maxAge {
			maxAge = age
		}
		if fix.ErrorRadiusMeters > maxErr {
			maxErr = fix.ErrorRadiusMeters
		}
		if age > MaxFixAge {
			healthy = false
		}
	}
	return maxAge, maxErr, healthy
}

// StalenessMarginDB converts a fix age into extra SIR margin.
func (j Judge) StalenessMarginDB(age time.Duration) float64 {
	if !j.healthEnabled() {
		return 0
	}
	return StalenessMarginDBPerSec * age.Seconds()
}

// Decide computes the full concurrency verdict for observer hearing
// ongoing.Src→ongoing.Dst while wanting to send to myDst: eq. 3 both ways
// plus the rate-economy check when a rate set is installed. It is the exact
// computation Agent.Allowed runs on a co-occurrence-map miss.
func (j Judge) Decide(fixes FixFunc, observer frame.NodeID, ongoing Link, myDst frame.NodeID) bool {
	return j.Model.Coexist(fixView{fixes}, ongoing.Src, ongoing.Dst, observer, myDst) &&
		j.rateEconomical(fixes, observer, myDst, ongoing.Src) &&
		j.rateEconomical(fixes, ongoing.Src, ongoing.Dst, observer)
}

// rateEconomical reports whether the link src→dst, under interference from
// interferer, still supports at least concurrencyFloorFactor of the bitrate
// it would sustain alone. With no rate set installed the check is skipped.
func (j Judge) rateEconomical(fixes FixFunc, src, dst, interferer frame.NodeID) bool {
	if len(j.Rates) == 0 {
		return true
	}
	sir, d, ok := j.predictSIR(fixes, src, dst, interferer)
	if !ok {
		return false
	}
	capped, ok := j.fastestForSIR(sir)
	if !ok {
		return false
	}
	alone := j.fastestAlone(d)
	return capped.BitsPerSec >= concurrencyFloorFactor*alone.BitsPerSec
}

// predictSIR is the position-predicted mean SIR at dst of the link src→dst
// under interference from interferer, less the safety margin: one composite
// shadowing deviation (√2·σ) plus the staleness margin of the oldest fix.
// Equal transmit powers make the mean SIR the path-loss difference. Under
// worst-case geometry the own link is lengthened and the interferer pulled
// in by the reported error radii; d is the link distance so evaluated. ok is
// false when any of the three fixes is missing or unhealthy.
func (j Judge) predictSIR(fixes FixFunc, src, dst, interferer frame.NodeID) (sirDB, d float64, ok bool) {
	fs, ok1 := fixes(src)
	fd, ok2 := fixes(dst)
	fi, ok3 := fixes(interferer)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, false
	}
	age, _, healthy := j.FixHealth(fixes, src, dst, interferer)
	if !healthy {
		return 0, 0, false
	}
	d = fs.Pos.DistanceTo(fd.Pos)
	r := fi.Pos.DistanceTo(fd.Pos)
	if j.healthEnabled() {
		d += fs.ErrorRadiusMeters + fd.ErrorRadiusMeters
		r -= fi.ErrorRadiusMeters + fd.ErrorRadiusMeters
		if r < minWorstCaseMeters {
			r = minWorstCaseMeters
		}
	}
	sir := j.Model.Prop.PathLossDB(r) - j.Model.Prop.PathLossDB(d)
	margin := math.Sqrt2*j.Model.Prop.SigmaDB + j.StalenessMarginDB(age)
	return sir - margin, d, true
}

// fastestForSIR returns the fastest rate decodable at the given SIR margin.
func (j Judge) fastestForSIR(sirDB float64) (phy.Rate, bool) {
	var best phy.Rate
	for _, r := range j.Rates {
		if r.MinSIRdB <= sirDB && r.BitsPerSec > best.BitsPerSec {
			best = r
		}
	}
	return best, !best.IsZero()
}

// fastestAlone returns the fastest rate the link supports without
// interference, one shadowing deviation below the mean received power.
func (j Judge) fastestAlone(d float64) phy.Rate {
	rx := j.Model.TxPowerDBm - j.Model.Prop.PathLossDB(d) - j.Model.Prop.SigmaDB
	best := j.slowestRate()
	for _, r := range j.Rates {
		if r.SensitivityDBm <= rx && r.BitsPerSec > best.BitsPerSec {
			best = r
		}
	}
	return best
}

func (j Judge) slowestRate() phy.Rate {
	slow := j.Rates[0]
	for _, r := range j.Rates[1:] {
		if r.BitsPerSec < slow.BitsPerSec {
			slow = r
		}
	}
	return slow
}

// DecideWide is the degraded-tier verdict for the ladder's stale and coarse
// rungs: eq. 3 both ways at worst-case geometry inflated by widenMeters on
// every error radius, with no rate-economy refinement — the degraded rungs
// forgo rate optimization and only need to know the pairing cannot corrupt
// frames. ok is false when any involved node has no fix at all.
func (j Judge) DecideWide(fixes FixFunc, observer frame.NodeID, ongoing Link, myDst frame.NodeID, widenMeters float64) (allowed, ok bool) {
	prr1, ok1 := j.prrWide(fixes, ongoing.Src, ongoing.Dst, observer, widenMeters)
	prr2, ok2 := j.prrWide(fixes, observer, myDst, ongoing.Src, widenMeters)
	if !ok1 || !ok2 {
		return false, false
	}
	return prr1 >= j.Model.TPRR && prr2 >= j.Model.TPRR, true
}

// prrWide predicts link PRR under interference at worst-case distances: own
// link longer, interferer closer to the receiver, each inflated by the
// reported error radii plus the extra widening margin.
func (j Judge) prrWide(fixes FixFunc, src, dst, interferer frame.NodeID, widen float64) (float64, bool) {
	fs, ok1 := fixes(src)
	fd, ok2 := fixes(dst)
	fi, ok3 := fixes(interferer)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	d := fs.Pos.DistanceTo(fd.Pos) + fs.ErrorRadiusMeters + fd.ErrorRadiusMeters + widen
	r := fi.Pos.DistanceTo(fd.Pos) - fi.ErrorRadiusMeters - fd.ErrorRadiusMeters - widen
	if r < minWorstCaseMeters {
		r = minWorstCaseMeters
	}
	return j.Model.Prop.PRR(j.Model.TSIRdB, d, r), true
}
