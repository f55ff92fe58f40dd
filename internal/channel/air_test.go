package channel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestLateNodeHearsNoFrameStartedBeforeIt registers a station far away
// while a frame is on the air. The frame was never sampled at the newcomer,
// so it must sense a silent channel (not a phantom 0 dBm per in-flight
// frame) until a frame that starts after its registration reaches it.
func TestLateNodeHearsNoFrameStartedBeforeIt(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	m.AudibilityMarginDB = math.Inf(1) // no pruning: the newcomer hears every later frame
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(10, 0), 0, &recorder{})
	if err := a.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 2}, phy.RateDSSS1, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	late := m.AddNode(3, geom.Pt(7000, 0), 0, &recorder{})
	if got := late.AggregateSignalDBm(); !math.IsInf(got, -1) {
		t.Fatalf("node registered mid-frame senses %v dBm, want -Inf", got)
	}

	if err := b.Transmit(frame.Frame{Kind: frame.Ack, Src: 2, Dst: 1}, phy.RateDSSS1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := m.model.MeanReceivedDBm(0, 6990)
	if got := late.AggregateSignalDBm(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after a new frame started the newcomer senses %v dBm, want only that frame's %v dBm", got, want)
	}
	eng.Run()
	if got := late.AggregateSignalDBm(); !math.IsInf(got, -1) {
		t.Fatalf("silent air reads %v dBm at the newcomer, want -Inf", got)
	}
}

// airReference recomputes every in-flight frame's received power at every
// node from first principles — current positions and powers, the
// audibility rule, and the keyed-draw contract: a pair's static shadow is
// the generator's draw at counter 0 of the unordered pair, and a
// transmitter's k-th frame fades by the draw at counter k of the directed
// pair — and sums energy and SINR over all of Medium.active in order, the
// brute-force way the per-receiver air lists must reproduce bit for bit.
type airReference struct {
	m   *Medium
	key uint64 // the generator key, from the seed
	// frames counts the frames each transmitter started.
	frames map[*Transceiver]uint64
	// pow holds each transmitter's frame's power at every node that
	// sampled it; a transmitter has at most one frame on the air.
	pow map[*Transceiver]map[*Transceiver]refPower
	// lockTx and latched follow each node's current lock and whether its
	// SINR has dropped below threshold at any check since it locked.
	lockTx  map[*Transceiver]*transmission
	latched map[*Transceiver]bool
	// Coverage tallies: pairs left out as inaudible, locks seen, and locks
	// that interference corrupted.
	pruned, locks, corrupted int
}

// refPower is one sampled received power, in dBm and in mW.
type refPower struct{ dBm, mW float64 }

func newAirReference(m *Medium, seed int64) *airReference {
	return &airReference{
		m:       m,
		key:     mix(uint64(seed)),
		frames:  map[*Transceiver]uint64{},
		pow:     map[*Transceiver]map[*Transceiver]refPower{},
		lockTx:  map[*Transceiver]*transmission{},
		latched: map[*Transceiver]bool{},
	}
}

// draw is the generator's standard normal deviate at (pair a→b, ctr).
func (r *airReference) draw(a, b frame.NodeID, ctr uint64) float64 {
	return normal(mix(mix(r.key^uint64(a)<<16^uint64(b)) + ctr*golden))
}

// transmit samples the frame's power at every node, then puts it on the
// air. Idle transmitters only: a refused Transmit counts no frame.
func (r *airReference) transmit(tr *Transceiver, f frame.Frame, rate phy.Rate, airtime time.Duration) error {
	m := r.m
	sigma := m.model.SigmaDB
	fadeDB := fadeScale * sigma
	fadeCap := audibilityFadeCapSigmas * fadeDB
	floor := m.noise - m.AudibilityMarginDB
	if m.extraPathLossDB < 0 {
		floor = math.Inf(-1)
	}
	r.frames[tr]++
	pows := map[*Transceiver]refPower{}
	for _, n := range m.nodes {
		if n == tr {
			continue
		}
		lo, hi := min(tr.id, n.id), max(tr.id, n.id)
		mean := m.model.MeanReceivedDBm(tr.txPower, tr.pos.DistanceTo(n.pos))
		base := mean + staticScale*sigma*r.draw(lo, hi, 0)
		if base+fadeCap < floor {
			r.pruned++
			continue
		}
		z := r.draw(tr.id, n.id, r.frames[tr])
		pows[n] = refPower{
			dBm: base - m.extraPathLossDB + fadeDB*z,
			mW:  math.Exp(base*lnPerDB) * math.Exp(-m.extraPathLossDB*lnPerDB) * math.Exp(fadeDB*lnPerDB*z),
		}
	}
	r.pow[tr] = pows // before Transmit: its callbacks already check energy
	return tr.Transmit(f, rate, airtime)
}

func (r *airReference) powerAt(tx *transmission, n *Transceiver) refPower {
	if p, ok := r.pow[tx.from][n]; ok {
		return p
	}
	return refPower{dBm: math.Inf(-1)}
}

// brute computes the brute-force energy at n — every active frame, in
// order, at 0 mW where n never sampled it — and the summed interference
// (noise first) against n's lock.
func (r *airReference) brute(n *Transceiver) (energyDBm, denomMW float64) {
	sumMW := 0.0
	denomMW = radio.DBmToMilliwatts(r.m.noise)
	for _, tx := range r.m.active {
		if tx.from == n {
			continue
		}
		p := r.powerAt(tx, n)
		sumMW += p.mW
		if n.lock != nil && tx != n.lock.tx {
			denomMW += p.mW
		}
	}
	return radio.MilliwattsToDBm(sumMW), denomMW
}

// checkEnergy compares every node's sensed energy with the brute-force sum,
// bit for bit. It also runs inside PHY callbacks: a frame must be in (or
// out of) every receiver's list before the first receiver hears of it.
func (r *airReference) checkEnergy(t *testing.T, step int) {
	t.Helper()
	for _, n := range r.m.nodes {
		want, _ := r.brute(n)
		if got := n.AggregateSignalDBm(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d node %d: AggregateSignalDBm %v (%#x), brute force %v (%#x)",
				step, n.id, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// checkLocks compares every lock's signal power and corruption latch with
// the brute-force SINR, compared in the linear domain. Between events only:
// within one, receivers are re-evaluated one by one.
func (r *airReference) checkLocks(t *testing.T, step int) {
	t.Helper()
	for _, n := range r.m.nodes {
		rec := n.lock
		if rec == nil {
			delete(r.lockTx, n)
			continue
		}
		if r.lockTx[n] != rec.tx {
			r.lockTx[n], r.latched[n] = rec.tx, false
			r.locks++
		}
		p := r.powerAt(rec.tx, n)
		if math.Float64bits(rec.signalDBm) != math.Float64bits(p.dBm) || math.Float64bits(rec.signalMW) != math.Float64bits(p.mW) {
			t.Fatalf("step %d node %d: locked at %v dBm (%v mW), frame arrives at %v dBm (%v mW)",
				step, n.id, rec.signalDBm, rec.signalMW, p.dBm, p.mW)
		}
		_, denomMW := r.brute(n)
		if p.mW < denomMW*math.Exp(rec.tx.rate.MinSIRdB*lnPerDB) && !r.latched[n] {
			r.latched[n] = true
			r.corrupted++
		}
		if rec.corrupted != r.latched[n] {
			t.Fatalf("step %d node %d: lock corrupted=%v, brute-force SINR says %v", step, n.id, rec.corrupted, r.latched[n])
		}
	}
}

// energyProbe is a Listener that runs a check on every energy indication.
type energyProbe struct{ check func() }

func (p *energyProbe) EnergyChanged(float64)                    { p.check() }
func (p *energyProbe) FrameReceived(frame.Frame, bool, float64) {}
func (p *energyProbe) TransmitDone(frame.Frame)                 {}

// TestAirListsMatchBruteForce drives gridded and gridless media through
// random overlapping transmissions, moves, noise-floor jumps and
// burst-fading windows (a loss and a gain), checking after every event that
// each node's energy and lock outcome equal the brute-force sums exactly.
func TestAirListsMatchBruteForce(t *testing.T) {
	grid, err := topology.NewGrid(geom.Pt(0, 0), 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		grid *topology.Grid
	}{{"gridless", nil}, {"grid", grid}} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 11
			eng := sim.New(seed)
			m := NewMedium(eng, radio.NewLogNormal2400(4.0, 2.0), -95)
			m.AudibilityMarginDB = 6 // prune the far half of the field
			if tc.grid != nil {
				m.SetGrid(tc.grid)
			}
			ref := newAirReference(m, seed)
			steps := 0
			probe := &energyProbe{check: func() { ref.checkEnergy(t, steps) }}
			script := rand.New(rand.NewSource(5))
			var nodes []*Transceiver
			for i := 0; i < 40; i++ {
				pos := geom.Pt(script.Float64()*1000, script.Float64()*1000)
				nodes = append(nodes, m.AddNode(frame.NodeID(i+1), pos, 20, probe))
			}

			rates := []phy.Rate{phy.RateOFDM6, phy.RateOFDM24, phy.RateOFDM54}
			var actionErr error
			at := time.Duration(0)
			for i := 0; i < 1500; i++ {
				at += time.Duration(script.Intn(120)) * time.Microsecond
				tr := nodes[script.Intn(len(nodes))]
				switch k := script.Intn(100); {
				case k < 80:
					f := frame.Frame{Kind: frame.Data, Src: tr.ID(), Dst: nodes[script.Intn(len(nodes))].ID(), Seq: uint16(i)}
					rate := rates[script.Intn(len(rates))]
					airtime := time.Duration(200+script.Intn(1800)) * time.Microsecond
					eng.Schedule(at, func() {
						if !tr.Transmitting() && actionErr == nil {
							actionErr = ref.transmit(tr, f, rate, airtime)
						}
					})
				case k < 92:
					p := geom.Pt(clampF(tr.Position().X+(script.Float64()-0.5)*300, 0, 1000),
						clampF(tr.Position().Y+(script.Float64()-0.5)*300, 0, 1000))
					eng.Schedule(at, func() { tr.SetPosition(p) })
				case k < 96:
					noise := -95 + script.Float64()*12
					eng.Schedule(at, func() { m.SetNoiseFloorDBm(noise) })
				default:
					loss := []float64{0, 0, 8, -3}[script.Intn(4)]
					eng.Schedule(at, func() { m.SetExtraPathLossDB(loss) })
				}
			}

			maxAir := 0
			for eng.Step() {
				if actionErr != nil {
					t.Fatal(actionErr)
				}
				maxAir = max(maxAir, len(m.active))
				ref.checkEnergy(t, steps)
				ref.checkLocks(t, steps)
				steps++
			}
			t.Logf("%d events: %d frames overlapped at most, %d pairs pruned, %d of %d locks corrupted",
				steps, maxAir, ref.pruned, ref.corrupted, ref.locks)
			if maxAir < 8 || ref.pruned == 0 || ref.corrupted == 0 || ref.corrupted == ref.locks {
				t.Fatalf("script too tame: %d frames overlapped at most, %d pairs pruned, %d of %d locks corrupted",
					maxAir, ref.pruned, ref.corrupted, ref.locks)
			}
		})
	}
}

// benchRegime is one channel-benchmark setting: a medium with frames
// parked on the air and the stations left idle to probe it.
type benchRegime struct {
	name string
	m    *Medium
	idle []*Transceiver
}

// busyAir puts a long frame on the air from onAir stations spread evenly
// over the medium's ID order, so energy and SINR sums run against a crowded
// channel, and returns the stations left idle.
func busyAir(b *testing.B, m *Medium, onAir int) []*Transceiver {
	b.Helper()
	nodes := m.Nodes()
	var idle []*Transceiver
	for i, tr := range nodes {
		if (i+1)*onAir/len(nodes) == i*onAir/len(nodes) {
			idle = append(idle, tr)
			continue
		}
		f := frame.Frame{Kind: frame.Data, Src: tr.ID(), PayloadBytes: 1000}
		if err := tr.Transmit(f, phy.RateOFDM6, 1000*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	return idle
}

// benchRegimes returns the paper-scale floor (30 stations, gridless, 25
// frames on the air — all a 30-node floor can stack while leaving probes)
// and the default 1,000-station city (1,064 nodes with its APs, shard grid
// and city radio regime, 200 frames on the air).
func benchRegimes(b *testing.B) []benchRegime {
	b.Helper()
	floor := NewMedium(sim.New(1), radio.NewLogNormal2400(3.0, 4.0), -95)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		floor.AddNode(frame.NodeID(i+1), geom.Pt(rng.Float64()*60, rng.Float64()*40), 15, nil)
	}

	top, err := topology.CityScale(topology.DefaultCityConfig(1000, 1))
	if err != nil {
		b.Fatal(err)
	}
	city := NewMedium(sim.New(1), radio.NewLogNormal2400(4.0, 2.0), -95)
	city.AudibilityMarginDB = 6
	city.SetGrid(top.World)
	for _, node := range top.Nodes {
		city.AddNode(node.ID, node.Pos, 30, nil)
	}
	return []benchRegime{
		{name: "n30-gridless", m: floor, idle: busyAir(b, floor, 25)},
		{name: "n1000-city", m: city, idle: busyAir(b, city, 200)},
	}
}

// BenchmarkAggregateSignal times one energy read (the CCA and CO-MAP RSSI
// input) at a station on a crowded channel.
func BenchmarkAggregateSignal(b *testing.B) {
	for _, r := range benchRegimes(b) {
		b.Run(r.name, func(b *testing.B) {
			nodes := r.m.Nodes()
			sink := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += nodes[i%len(nodes)].AggregateSignalDBm()
			}
			b.StopTimer()
			b.ReportMetric(float64(len(r.m.active)), "frames_on_air")
			if math.IsNaN(sink) {
				b.Fatal("NaN energy")
			}
		})
	}
}

// BenchmarkTransmitBusyAir times one short frame from an idle station on a
// crowded channel: the fading draws, every heard receiver's energy and SINR
// update at the start, and the delivery sweep at the end.
func BenchmarkTransmitBusyAir(b *testing.B) {
	for _, r := range benchRegimes(b) {
		b.Run(r.name, func(b *testing.B) {
			eng := r.m.eng
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := r.idle[i%len(r.idle)]
				f := frame.Frame{Kind: frame.Data, Src: tr.ID(), PayloadBytes: 100}
				if err := tr.Transmit(f, phy.RateOFDM6, 100*time.Microsecond); err != nil {
					b.Fatal(err)
				}
				eng.Step() // the frame's end: the parked frames run for hours
			}
			b.StopTimer()
			b.ReportMetric(float64(len(r.m.active)), "frames_on_air")
		})
	}
}
