package mapsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/phy"
	"repro/internal/radio"
)

// ---------------------------------------------------------------------------
// Codec

func sampleRecords() []IngestRecord {
	return []IngestRecord{
		{Op: RecReport, Node: 1, Fix: loc.Fix{Pos: geom.Point{X: 1.5, Y: -2.25}, ReportedAt: 123 * time.Millisecond, ErrorRadiusMeters: 3}},
		{Op: RecReport, Node: 300, Fix: loc.Fix{Pos: geom.Point{X: -7, Y: 0}, ReportedAt: 0, ErrorRadiusMeters: 0}},
		{Op: RecDeregister, Node: 1},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := sampleRecords()
	enc := EncodeRecords(recs)
	if len(enc) != len(recs)*recordSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), len(recs)*recordSize)
	}
	dec, err := DecodeRecords(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(dec), len(recs))
	}
	for i := range recs {
		if dec[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, dec[i], recs[i])
		}
	}
}

func TestCodecTornTailDropped(t *testing.T) {
	recs := sampleRecords()
	enc := EncodeRecords(recs)
	// A crash mid-append leaves a partial last record; replay must keep the
	// complete prefix and drop the tail.
	torn := enc[:len(enc)-10]
	dec, err := DecodeRecords(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(recs)-1 {
		t.Fatalf("torn decode kept %d records, want %d", len(dec), len(recs)-1)
	}
}

func TestCodecUnknownOpRejected(t *testing.T) {
	enc := EncodeRecords(sampleRecords())
	enc[0] = 99
	if _, err := DecodeRecords(enc); err == nil {
		t.Fatal("unknown op decoded without error")
	}
}

// TestCodecRejectsInvalidFixes checks that a report whose position is not
// finite, or whose error radius is negative or not finite, fails to decode
// with an error naming the record and the field — wherever it sits in the
// batch — while deregistrations, whose fix is unused, are not checked.
func TestCodecRejectsInvalidFixes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := loc.Fix{Pos: geom.Pt(1, 2), ErrorRadiusMeters: 3}
	cases := []struct {
		name  string
		fix   loc.Fix
		field string // "" = must decode
	}{
		{"valid", ok, ""},
		{"zero radius", loc.Fix{Pos: geom.Pt(-1, 0)}, ""},
		{"nan x", loc.Fix{Pos: geom.Pt(nan, 2), ErrorRadiusMeters: 3}, "x"},
		{"+inf x", loc.Fix{Pos: geom.Pt(inf, 2), ErrorRadiusMeters: 3}, "x"},
		{"-inf y", loc.Fix{Pos: geom.Pt(1, -inf), ErrorRadiusMeters: 3}, "y"},
		{"nan y", loc.Fix{Pos: geom.Pt(1, nan), ErrorRadiusMeters: 3}, "y"},
		{"nan pos and radius", loc.Fix{Pos: geom.Pt(nan, inf), ErrorRadiusMeters: nan}, "x"},
		{"nan radius", loc.Fix{Pos: geom.Pt(1, 2), ErrorRadiusMeters: nan}, "error radius"},
		{"inf radius", loc.Fix{Pos: geom.Pt(1, 2), ErrorRadiusMeters: inf}, "error radius"},
		{"negative radius", loc.Fix{Pos: geom.Pt(1, 2), ErrorRadiusMeters: -0.5}, "error radius"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := []IngestRecord{
				{Op: RecReport, Node: 1, Fix: ok},
				{Op: RecReport, Node: 7, Fix: tc.fix},
			}
			dec, err := DecodeRecords(EncodeRecords(recs))
			if tc.field == "" {
				if err != nil || len(dec) != 2 {
					t.Fatalf("decode = %d records, %v; want 2, nil", len(dec), err)
				}
				return
			}
			if err == nil {
				t.Fatalf("decoded %+v without error", dec)
			}
			if msg := err.Error(); !strings.Contains(msg, "record 1") || !strings.Contains(msg, tc.field) {
				t.Errorf("error %q does not name record 1 and field %q", msg, tc.field)
			}
			// A deregistration carrying the same bytes is fine.
			recs[1].Op = RecDeregister
			if _, err := DecodeRecords(EncodeRecords(recs)); err != nil {
				t.Errorf("deregistration rejected: %v", err)
			}
		})
	}
}

// FuzzDecodeRecords feeds arbitrary bytes to the codec: it must never
// panic, and every record it accepts must be a known op with a finite fix
// that re-encodes to the exact bytes it came from.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(EncodeRecords(sampleRecords()))
	for _, r := range sampleRecords() {
		f.Add(AppendRecord(nil, r))
	}
	f.Add(EncodeRecords(sampleRecords())[:recordSize+10])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return
		}
		if len(recs) != len(data)/recordSize {
			t.Fatalf("decoded %d records from %d bytes", len(recs), len(data))
		}
		for i, r := range recs {
			if r.Op != RecReport && r.Op != RecDeregister {
				t.Fatalf("record %d: accepted op %d", i, r.Op)
			}
			if r.Op == RecReport && (!finite(r.Fix.Pos.X) || !finite(r.Fix.Pos.Y) ||
				!finite(r.Fix.ErrorRadiusMeters) || r.Fix.ErrorRadiusMeters < 0) {
				t.Fatalf("record %d: accepted fix %+v", i, r.Fix)
			}
			raw := data[i*recordSize : (i+1)*recordSize]
			if got := AppendRecord(nil, r); !bytes.Equal(got, raw) {
				t.Fatalf("record %d does not round-trip: % x -> % x", i, raw, got)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Stores

func TestMemStoreSnapshotTruncatesWAL(t *testing.T) {
	m := NewMemStore()
	recs := sampleRecords()
	if err := m.AppendWAL(recs); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshot(recs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendWAL(recs[1:2]); err != nil {
		t.Fatal(err)
	}
	snap, wal, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0] != recs[0] {
		t.Errorf("snapshot = %+v, want just %+v", snap, recs[0])
	}
	if len(wal) != 1 || wal[0] != recs[1] {
		t.Errorf("wal after snapshot = %+v, want just %+v", wal, recs[1])
	}
}

func TestDirStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()

	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendWAL(recs); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSnapshot(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendWAL(recs[2:]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A new store over the same directory is the post-SIGKILL restart.
	d2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, wal, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 || snap[0] != recs[0] || snap[1] != recs[1] {
		t.Errorf("snapshot after reopen = %+v", snap)
	}
	if len(wal) != 1 || wal[0] != recs[2] {
		t.Errorf("wal after reopen = %+v, want just %+v", wal, recs[2])
	}
}

func TestDirStoreToleratesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := d.AppendWAL(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half, as a crash mid-write would.
	path := filepath.Join(dir, "wal.dat")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-recordSize/2], 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, wal, err := d2.Load()
	if err != nil {
		t.Fatalf("torn WAL tail must load, got %v", err)
	}
	if len(snap) != 0 {
		t.Errorf("unexpected snapshot %+v", snap)
	}
	if len(wal) != 1 || wal[0] != recs[0] {
		t.Errorf("torn wal = %+v, want just the intact record %+v", wal, recs[0])
	}
}

// TestDirStoreAppendAfterTornTail: records appended after a torn tail was
// dropped at load must read back whole, not shifted by the tail's bytes.
func TestDirStoreAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := d.AppendWAL(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.dat")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-recordSize/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.Load(); err != nil {
		t.Fatal(err)
	}
	if err := d2.AppendWAL(recs[2:]); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	_, wal, err := d3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 2 || wal[0] != recs[0] || wal[1] != recs[2] {
		t.Errorf("wal = %+v, want %+v then %+v", wal, recs[0], recs[2])
	}
}

// TestStoresCopyWhatTheyKeep asserts both stores copy the records they are
// given: the service reuses its batch and snapshot slices, so overwriting a
// slice after AppendWAL or WriteSnapshot must not change what Load returns.
func TestStoresCopyWhatTheyKeep(t *testing.T) {
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	scribble := func(recs []IngestRecord) {
		for i := range recs {
			recs[i] = IngestRecord{Op: RecDeregister, Node: 9999}
		}
	}
	for _, tc := range []struct {
		name  string
		store Store
	}{{"MemStore", NewMemStore()}, {"DirStore", d}} {
		wal := sampleRecords()
		if err := tc.store.AppendWAL(wal); err != nil {
			t.Fatal(err)
		}
		scribble(wal)
		if _, got, err := tc.store.Load(); err != nil || !slices.Equal(got, sampleRecords()) {
			t.Errorf("%s: WAL after overwriting the appended slice = %+v (%v), want %+v", tc.name, got, err, sampleRecords())
		}

		snap, tail := sampleRecords()[:2], sampleRecords()[2:]
		if err := tc.store.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		scribble(snap)
		if err := tc.store.AppendWAL(tail); err != nil {
			t.Fatal(err)
		}
		scribble(tail)
		gotSnap, gotWAL, err := tc.store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotSnap, sampleRecords()[:2]) || !slices.Equal(gotWAL, sampleRecords()[2:]) {
			t.Errorf("%s: after overwriting the passed slices, Load = %+v then %+v, want %+v then %+v",
				tc.name, gotSnap, gotWAL, sampleRecords()[:2], sampleRecords()[2:])
		}
	}
}

// FuzzRecover restarts a service over fuzzed snapshot and WAL files. It
// must never panic; every fix it recovers must be finite; and a record
// appended after the recovery must read back, after a reopen, on top of
// exactly the recovered set.
func FuzzRecover(f *testing.F) {
	enc := EncodeRecords(sampleRecords())
	f.Add(enc[:2*recordSize], enc)
	f.Add([]byte{}, enc[:recordSize+recordSize/2])
	f.Add(enc[:recordSize/2], enc[recordSize:])
	f.Add(enc, []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, snapshot, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.dat"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := func() map[frame.NodeID]loc.Fix {
			store, err := NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			svc := NewService(ServiceConfig{Store: store})
			if err := svc.Recover(); err != nil {
				return nil
			}
			fixes := make(map[frame.NodeID]loc.Fix)
			for _, r := range svc.fixRecords(nil) {
				if err := checkFix(r.Fix); err != nil {
					t.Fatalf("recovered node %d with a bad fix: %v", r.Node, err)
				}
				fixes[r.Node] = r.Fix
			}
			return fixes
		}
		want := recovered()
		if want == nil {
			return // rejected as corrupt, not misread
		}

		rec := IngestRecord{Op: RecReport, Node: 4242, Fix: loc.Fix{Pos: geom.Pt(1, 2), ReportedAt: time.Second, ErrorRadiusMeters: 1}}
		store, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = store.AppendWAL([]IngestRecord{rec})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		want[rec.Node] = rec.Fix

		got := recovered()
		if got == nil {
			t.Fatal("store no longer recovers after one valid append")
		}
		if len(got) != len(want) {
			t.Fatalf("recovered %d fixes after the append, want %d", len(got), len(want))
		}
		for id, fix := range want {
			if got[id] != fix {
				t.Fatalf("node %d: recovered %+v, want %+v", id, got[id], fix)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Service

// testJudge returns a Judge over the paper's Table I model (NS2Options):
// verdicts are pure geometry, so the tests below pick layouts that are
// unambiguously allowed (links 300 m apart) or denied (interferer 1 m from
// the receiver).
// now, when non-nil, turns the location-health gate on.
func testJudge(now func() time.Duration) comap.Judge {
	prop := radio.NewLogNormal2400(3.3, 5)
	return comap.Judge{
		Model: comap.Model{
			Prop:           prop,
			TxPowerDBm:     20,
			TSIRdB:         10,
			TPRR:           0.95,
			TcsDBm:         -80,
			CSMissProb:     0.9,
			SensitivityDBm: -94,
		},
		Rates: phy.NS2Table1().Rates,
		Now:   now,
	}
}

// testTopologyRecords lays out two 10 m links 300 m apart (a clear exposed-
// terminal pairing) plus node 5 one meter from node 2 (a hopeless
// interferer).
func testTopologyRecords(at time.Duration) []IngestRecord {
	fix := func(x, y float64) loc.Fix {
		return loc.Fix{Pos: geom.Point{X: x, Y: y}, ReportedAt: at}
	}
	return []IngestRecord{
		{Op: RecReport, Node: 1, Fix: fix(0, 0)},
		{Op: RecReport, Node: 2, Fix: fix(0, 10)},
		{Op: RecReport, Node: 3, Fix: fix(300, 0)},
		{Op: RecReport, Node: 4, Fix: fix(300, 10)},
		{Op: RecReport, Node: 5, Fix: fix(0, 11)},
	}
}

var (
	farKey  = Key{Observer: 3, Ongoing: comap.Link{Src: 1, Dst: 2}, MyDst: 4}
	nearKey = Key{Observer: 5, Ongoing: comap.Link{Src: 1, Dst: 2}, MyDst: 4}
)

func TestServiceVerdictComputeCacheInvalidate(t *testing.T) {
	svc := NewService(ServiceConfig{Judge: testJudge(nil)})
	if err := svc.ApplyCtx(testTopologyRecords(0), CallContext{}); err != nil {
		t.Fatal(err)
	}

	v, err := svc.VerdictForCtx(farKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Allowed || !v.Wide || v.Cached {
		t.Fatalf("far ET verdict = %+v, want allowed+wide uncached", v)
	}
	v2, err := svc.VerdictForCtx(farKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.Allowed != v.Allowed || v2.Wide != v.Wide {
		t.Fatalf("second verdict = %+v, want cached copy of %+v", v2, v)
	}
	vn, err := svc.VerdictForCtx(nearKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if vn.Allowed || vn.Wide {
		t.Fatalf("1m-from-receiver verdict = %+v, want denied", vn)
	}

	st := svc.Status()
	if st.VerdictsServed != 3 || st.VerdictsComputed != 2 || st.CacheEntries != 2 {
		t.Fatalf("served=%d computed=%d cache=%d, want 3/2/2",
			st.VerdictsServed, st.VerdictsComputed, st.CacheEntries)
	}

	// Invalidating a link endpoint drops every verdict involving it; the
	// next ask recomputes.
	svc.InvalidateNodeCtx(2, CallContext{})
	if st := svc.Status(); st.CacheEntries != 0 {
		t.Fatalf("cache entries after InvalidateNode(2) = %d, want 0", st.CacheEntries)
	}
	v3, err := svc.VerdictForCtx(farKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Cached {
		t.Fatal("verdict served from cache after invalidation")
	}
	if svc.Status().VerdictsComputed != 3 {
		t.Fatalf("computed = %d after invalidation, want 3", svc.Status().VerdictsComputed)
	}
}

func TestServiceUnhealthyVerdictsNeverCached(t *testing.T) {
	now := time.Duration(0)
	svc := NewService(ServiceConfig{
		Judge: testJudge(func() time.Duration { return now }),
	})
	recs := testTopologyRecords(0)
	// Leave node 4 (myDst) out: the health gate must refuse the verdict.
	if err := svc.ApplyCtx(recs[:3], CallContext{}); err != nil {
		t.Fatal(err)
	}
	v, err := svc.VerdictForCtx(farKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Unhealthy {
		t.Fatalf("missing-fix verdict = %+v, want unhealthy", v)
	}
	if st := svc.Status(); st.VerdictsComputed != 0 || st.CacheEntries != 0 {
		t.Fatalf("unhealthy verdict computed/cached: %+v", st)
	}

	// The fix arriving heals the key with no invalidation needed.
	if err := svc.ApplyCtx(recs[3:4], CallContext{}); err != nil {
		t.Fatal(err)
	}
	v, err = svc.VerdictForCtx(farKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Unhealthy || !v.Allowed {
		t.Fatalf("healed verdict = %+v, want allowed", v)
	}

	// Ageing every fix past the confidence bound makes fresh keys unhealthy
	// again — but the cached verdict for farKey still serves (staleness
	// gating of cached entries is the client ladder's job, not the cache's).
	now = comap.MaxFixAge + time.Second
	v, err = svc.VerdictForCtx(nearKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Unhealthy {
		t.Fatalf("aged-fix verdict = %+v, want unhealthy", v)
	}
}

// TestDenseFixTableMatchesMapReference drives random report and deregister
// streams through ApplyCtx and checks the fix table against a map: fixOf,
// Status().Fixes and the snapshot's node order after every batch, and the
// same after a crash and recovery. The IDs include both ends of the NodeID
// range; streams deregister IDs never reported and report IDs after their
// deregistration, and a deregistration never grows the table.
func TestDenseFixTableMatchesMapReference(t *testing.T) {
	ids := []frame.NodeID{0, 1, 2, 9, 300, 4096, 65534, 65535} // ascending
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		svc := NewService(ServiceConfig{Judge: testJudge(nil), Store: NewMemStore(), SnapshotEvery: 1 + rng.Intn(16)})
		if err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		ref := make(map[frame.NodeID]loc.Fix)
		check := func(when string) {
			t.Helper()
			if got := svc.Status().Fixes; got != int64(len(ref)) {
				t.Fatalf("seed %d, %s: Status().Fixes = %d, want %d", seed, when, got, len(ref))
			}
			var want []IngestRecord
			for _, id := range ids {
				wantFix, wantOK := ref[id]
				if got, ok := svc.fixOf(id); got != wantFix || ok != wantOK {
					t.Fatalf("seed %d, %s: fixOf(%d) = %+v, %v, want %+v, %v", seed, when, id, got, ok, wantFix, wantOK)
				}
				if wantOK {
					want = append(want, IngestRecord{Op: RecReport, Node: id, Fix: wantFix})
				}
			}
			if got := svc.fixRecords(nil); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: snapshot records %+v, want %+v", seed, when, got, want)
			}
		}

		// Deregistrations of IDs never reported leave the table empty.
		if err := svc.ApplyCtx([]IngestRecord{{Op: RecDeregister, Node: 65535}, {Op: RecDeregister, Node: 9}}, CallContext{}); err != nil {
			t.Fatal(err)
		}
		if len(svc.fixes) != 0 {
			t.Fatalf("seed %d: deregistrations grew the table to %d slots", seed, len(svc.fixes))
		}
		check("after deregistering unknown IDs")

		largest := -1
		for batch := 0; batch < 60; batch++ {
			recs := make([]IngestRecord, 1+rng.Intn(8))
			for i := range recs {
				id := ids[rng.Intn(len(ids))]
				if rng.Intn(3) == 0 {
					recs[i] = IngestRecord{Op: RecDeregister, Node: id}
					delete(ref, id)
					continue
				}
				fix := loc.Fix{
					Pos:               geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
					ReportedAt:        time.Duration(batch) * time.Millisecond,
					ErrorRadiusMeters: rng.Float64() * 5,
				}
				recs[i] = IngestRecord{Op: RecReport, Node: id, Fix: fix}
				ref[id] = fix
				largest = max(largest, int(id))
			}
			if err := svc.ApplyCtx(recs, CallContext{}); err != nil {
				t.Fatal(err)
			}
			if len(svc.fixes) != largest+1 {
				t.Fatalf("seed %d, batch %d: table has %d slots, the largest ID reported is %d", seed, batch, len(svc.fixes), largest)
			}
			check(fmt.Sprintf("batch %d", batch))
		}
		svc.Crash()
		if err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		check("after recovery")
	}
}

func TestServiceCrashRecoverReplaysWAL(t *testing.T) {
	store := NewMemStore()
	svc := NewService(ServiceConfig{
		Judge:         testJudge(nil),
		Store:         store,
		SnapshotEvery: 4,
	})
	recs := testTopologyRecords(0)
	// First batch of 4 hits the snapshot cadence; the second lands in the
	// WAL only.
	if err := svc.ApplyCtx(recs[:4], CallContext{}); err != nil {
		t.Fatal(err)
	}
	if err := svc.ApplyCtx(recs[4:], CallContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.VerdictForCtx(farKey, CallContext{}); err != nil {
		t.Fatal(err)
	}
	st := svc.Status()
	if st.Snapshots != 1 || st.WALRecords != 5 || st.Fixes != 5 || st.Epoch != 1 {
		t.Fatalf("pre-crash status %+v", st)
	}

	svc.Crash()
	if !svc.Down() {
		t.Fatal("service not down after Crash")
	}
	if err := svc.ApplyCtx(recs[:1], CallContext{}); err != ErrUnavailable {
		t.Fatalf("Apply on crashed service = %v, want ErrUnavailable", err)
	}
	if _, err := svc.VerdictForCtx(farKey, CallContext{}); err != ErrUnavailable {
		t.Fatalf("VerdictForCtx on crashed service = %v, want ErrUnavailable", err)
	}
	if st := svc.Status(); st.Fixes != 0 || st.CacheEntries != 0 {
		t.Fatalf("volatile state survived the crash: %+v", st)
	}

	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	st = svc.Status()
	if st.Down || st.Epoch != 2 || st.Recoveries != 1 {
		t.Fatalf("post-recover status %+v", st)
	}
	if st.Fixes != 5 || st.WALReplayed != 1 {
		t.Fatalf("recovery rebuilt fixes=%d wal_replayed=%d, want 5 fixes via snapshot+1 WAL record",
			st.Fixes, st.WALReplayed)
	}
	// The rebuilt table answers identically.
	v, err := svc.VerdictForCtx(farKey, CallContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Allowed || v.Cached {
		t.Fatalf("post-recovery verdict = %+v, want recomputed allow", v)
	}

	// A deregistration round-trips through the persistence plane too.
	if err := svc.ApplyCtx([]IngestRecord{{Op: RecDeregister, Node: 5}}, CallContext{}); err != nil {
		t.Fatal(err)
	}
	svc.Crash()
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Status().Fixes; got != 4 {
		t.Fatalf("fixes after deregister+crash+recover = %d, want 4", got)
	}
}

// ---------------------------------------------------------------------------
// Client

// fakeClock is a manual sim clock for client tests: Now reads a variable,
// After registers timers, advance fires them in time order (timers may arm
// further timers while firing).
type fakeClock struct {
	now    time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at    time.Duration
	fn    func()
	fired bool
	dead  bool
}

func (fc *fakeClock) Now() time.Duration { return fc.now }

func (fc *fakeClock) After(d time.Duration, fn func()) func() {
	tm := &fakeTimer{at: fc.now + d, fn: fn}
	fc.timers = append(fc.timers, tm)
	return func() { tm.dead = true }
}

func (fc *fakeClock) advance(d time.Duration) {
	target := fc.now + d
	for {
		var next *fakeTimer
		for _, tm := range fc.timers {
			if tm.fired || tm.dead || tm.at > target {
				continue
			}
			if next == nil || tm.at < next.at {
				next = tm
			}
		}
		if next == nil {
			break
		}
		fc.now = next.at
		next.fired = true
		next.fn()
	}
	fc.now = target
}

// scriptTransport answers calls per its mode: "ok" completes inline with the
// scripted verdict, "err" fails inline, "lost" never completes.
type scriptTransport struct {
	mode    string
	verdict Verdict
	epoch   uint64
	reqs    []Request
}

func (s *scriptTransport) Invoke(req *Request, done func(*Response, error)) bool {
	cp := *req
	cp.Recs = append([]IngestRecord(nil), req.Recs...)
	s.reqs = append(s.reqs, cp)
	switch s.mode {
	case "ok":
		done(&Response{Verdict: s.verdict, Epoch: s.epoch}, nil)
		return true
	case "err":
		done(nil, ErrUnavailable)
		return true
	default: // lost
		return false
	}
}

func (s *scriptTransport) ops() []Op {
	var out []Op
	for _, r := range s.reqs {
		out = append(out, r.Op)
	}
	return out
}

func clientHarness() (*Client, *scriptTransport, *fakeClock) {
	fc := &fakeClock{}
	tr := &scriptTransport{mode: "ok", epoch: 1}
	c := NewClient(tr, ClientConfig{Now: fc.Now, After: fc.After})
	c.AdoptEpoch(1)
	return c, tr, fc
}

// tripBreaker fails breakerFailures consecutive verdict calls for observer
// obs, which opens the breaker. Each failure schedules a retry that only
// fires when the clock advances — by then the breaker refuses it.
func tripBreaker(t *testing.T, c *Client, tr *scriptTransport, obs frame.NodeID) {
	t.Helper()
	tr.mode = "err"
	for i := 0; i < breakerFailures; i++ {
		if st := c.Status(); st.Breaker != "closed" {
			t.Fatalf("breaker %s after %d failures, want closed until %d", st.Breaker, i, breakerFailures)
		}
		askRemote(c, obs)
	}
	if st := c.Status(); st.Breaker != "open" {
		t.Fatalf("breaker %s after %d failures, want open", st.Breaker, breakerFailures)
	}
}

func verdictKey(obs frame.NodeID) Key {
	return Key{Observer: obs, Ongoing: comap.Link{Src: 1, Dst: 2}, MyDst: frame.NodeID(obs + 1)}
}

func askRemote(c *Client, obs frame.NodeID) comap.RemoteVerdict {
	k := verdictKey(obs)
	return c.Verdict(k.Observer, k.Ongoing, k.MyDst, false, false)
}

func TestClientFreshInlineAndCachedFresh(t *testing.T) {
	c, tr, _ := clientHarness()
	tr.verdict = Verdict{Allowed: true, Wide: true}

	v := askRemote(c, 3)
	if v.Source != comap.RemoteValidated || !v.Allowed {
		t.Fatalf("inline round trip = %+v, want validated allow", v)
	}
	// With the map hit present and the breaker closed, the client must not
	// call the service again.
	k := verdictKey(3)
	v = c.Verdict(k.Observer, k.Ongoing, k.MyDst, true, true)
	if v.Source != comap.RemoteCachedFresh || !v.Allowed {
		t.Fatalf("cached-fresh verdict = %+v", v)
	}
	st := c.Status()
	if st.Calls != 1 {
		t.Fatalf("calls = %d, want 1 (cached-fresh must not re-call)", st.Calls)
	}
	if st.RungDecisions["fresh"] != 2 || st.LadderTransitions != 0 {
		t.Fatalf("zero-fault client left fresh: %+v", st.RungDecisions)
	}
	if st.Breaker != "closed" || st.Rung != "fresh" {
		t.Fatalf("status = %+v", st)
	}
}

// TestClientHitPathConcurrentWithStatus drives fresh-rung map hits, which
// take the lock-free path, from several goroutines while another scrapes
// Status (run under -race), then checks every hit was counted on the fresh
// rung and that an open breaker takes hits off the lock-free path.
func TestClientHitPathConcurrentWithStatus(t *testing.T) {
	c, tr, _ := clientHarness()
	const workers, hits = 4, 500
	k := verdictKey(3)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				if v := c.Verdict(k.Observer, k.Ongoing, k.MyDst, true, true); v.Source != comap.RemoteCachedFresh || !v.Allowed {
					t.Errorf("hit = %+v, want cached-fresh allow", v)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = c.Status()
		}
	}()
	wg.Wait()
	<-done
	if st := c.Status(); st.RungDecisions["fresh"] != workers*hits || st.Calls != 0 {
		t.Fatalf("after %d hits: fresh = %d, calls = %d", workers*hits, st.RungDecisions["fresh"], st.Calls)
	}

	tripBreaker(t, c, tr, 5)
	if v := c.Verdict(k.Observer, k.Ongoing, k.MyDst, true, true); v.Source == comap.RemoteCachedFresh {
		t.Fatalf("hit on an open breaker served cached-fresh: %+v", v)
	}
}

func TestClientUnhealthyVerdictPropagates(t *testing.T) {
	c, tr, _ := clientHarness()
	tr.verdict = Verdict{Unhealthy: true}
	v := askRemote(c, 3)
	if v.Source != comap.RemoteValidated || !v.Unhealthy {
		t.Fatalf("unhealthy verdict = %+v, want validated+unhealthy", v)
	}
	// Unhealthy answers must not enter the stale cache: with the transport
	// now failing, the same key lands on the DCF floor, not the stale rung.
	tr.mode = "err"
	v = askRemote(c, 3)
	if v.Source != comap.RemoteUnavailable {
		t.Fatalf("post-unhealthy degraded verdict = %+v, want unavailable", v)
	}
}

func TestClientBreakerOpensAndRecovers(t *testing.T) {
	c, tr, fc := clientHarness()
	tripBreaker(t, c, tr, 3)
	if st := c.Status(); st.Failures != breakerFailures {
		t.Fatalf("failures = %d, want %d", st.Failures, breakerFailures)
	}
	// Open breaker: fail fast, no transport traffic.
	before := len(tr.reqs)
	v := askRemote(c, 7)
	if v.Source != comap.RemoteUnavailable {
		t.Fatalf("open-breaker verdict = %+v, want unavailable", v)
	}
	if len(tr.reqs) != before {
		t.Fatal("open breaker still sent a call")
	}

	// Just short of the cooldown the breaker is still open: the retries the
	// failures scheduled come due and are refused without a call.
	fc.advance(breakerCooldown - time.Millisecond)
	if len(tr.reqs) != before {
		t.Fatalf("open breaker let %d retries through", len(tr.reqs)-before)
	}
	if v := askRemote(c, 7); v.Source != comap.RemoteUnavailable || len(tr.reqs) != before {
		t.Fatalf("breaker half-opened before the cooldown: %+v", v)
	}

	// After the cooldown the breaker half-opens, admits one probe, and a
	// success closes it.
	fc.advance(time.Millisecond)
	tr.mode = "ok"
	tr.verdict = Verdict{Allowed: true, Wide: true}
	v = askRemote(c, 9)
	if v.Source != comap.RemoteValidated || !v.Allowed {
		t.Fatalf("probe verdict = %+v, want validated allow", v)
	}
	if st := c.Status(); st.Breaker != "closed" {
		t.Fatalf("breaker after successful probe: %q", st.Breaker)
	}
}

func TestClientDeadlineEndsLostCall(t *testing.T) {
	c, tr, fc := clientHarness()
	tr.mode = "lost"

	v := askRemote(c, 3)
	if v.Source != comap.RemoteUnavailable {
		t.Fatalf("in-flight verdict = %+v, want unavailable floor", v)
	}
	if st := c.Status(); st.PendingCalls != 1 || st.Timeouts != 0 {
		t.Fatalf("pre-deadline status %+v", st)
	}
	fc.advance(callDeadline)
	st := c.Status()
	if st.PendingCalls != 0 || st.Timeouts != 1 || st.Failures != 1 {
		t.Fatalf("post-deadline status %+v, want the deadline to end the call", st)
	}
	// Every retry is lost too and ends at its own deadline: the first
	// attempt plus maxRetries, fewer than breakerFailures, so the breaker
	// stays closed.
	fc.advance(time.Second)
	st = c.Status()
	if st.Calls != 1+maxRetries || st.Timeouts != 1+maxRetries || st.PendingCalls != 0 || st.Breaker != "closed" {
		t.Fatalf("after every retry timed out: %+v, want %d calls and timeouts, breaker closed", st, 1+maxRetries)
	}
}

// TestClientRetryBackoff follows one failing request through its retries:
// each waits retryBase<<(k-1) after the previous failure, and after
// maxRetries the request is dropped.
func TestClientRetryBackoff(t *testing.T) {
	c, tr, fc := clientHarness()
	tr.mode = "err"

	askRemote(c, 3)
	if st := c.Status(); st.Retries != 1 {
		t.Fatalf("retries after first failure = %d, want 1 scheduled", st.Retries)
	}
	for k := 1; k <= maxRetries; k++ {
		backoff := retryBase << (k - 1)
		fc.advance(backoff - time.Millisecond)
		if len(tr.reqs) != k {
			t.Fatalf("retry %d fired before its %v backoff: %d calls", k, backoff, len(tr.reqs))
		}
		fc.advance(time.Millisecond)
		if len(tr.reqs) != k+1 {
			t.Fatalf("retry %d did not fire at %v: %d calls", k, backoff, len(tr.reqs))
		}
		if got := tr.reqs[k]; got.Ctx.Req != tr.reqs[0].Ctx.Req || got.Ctx.Attempt != k+1 {
			t.Fatalf("retry %d context = %+v, want request %d attempt %d", k, got.Ctx, tr.reqs[0].Ctx.Req, k+1)
		}
	}
	fc.advance(time.Second)
	st := c.Status()
	if st.Calls != 1+maxRetries || st.Retries != maxRetries || st.BudgetExhausted != 0 || st.Breaker != "closed" {
		t.Fatalf("status %+v, want %d calls, %d retries, no budget exhaustion, breaker closed", st, 1+maxRetries, maxRetries)
	}
}

// TestClientRetryBudgetExhausts drives the retry budget dry with the
// production constants. The breaker opens after breakerFailures consecutive
// failures, before the retryBurst tokens run out, so only failures broken
// up by successes can spend the whole budget: the scripted transport
// alternates the two, the clock never moves (no refill, no retry fires),
// and every failure spends one token on its retry.
func TestClientRetryBudgetExhausts(t *testing.T) {
	c, tr, _ := clientHarness()
	for i := 0; i < retryBurst+1; i++ {
		tr.mode = "err"
		askRemote(c, 3)
		tr.mode = "ok"
		askRemote(c, 5)
	}
	st := c.Status()
	if st.BudgetExhausted != 1 || st.Retries != retryBurst {
		t.Fatalf("retries = %d, budget_exhausted = %d, want %d and 1", st.Retries, st.BudgetExhausted, retryBurst)
	}
	if st.Breaker != "closed" || st.BreakerOpens != 0 {
		t.Fatalf("breaker %s (opens %d), want closed throughout", st.Breaker, st.BreakerOpens)
	}
	if st.RetryBudget != 0 {
		t.Fatalf("retry budget = %v, want 0", st.RetryBudget)
	}
}

func TestClientLadderStaleCoarseDCF(t *testing.T) {
	c, tr, fc := clientHarness()

	// Seed the stale cache with keys disjoint from the geometry keys below:
	// observer 30 allowed wide, observer 50 allowed but narrow.
	tr.verdict = Verdict{Allowed: true, Wide: true}
	askRemote(c, 30)
	tr.verdict = Verdict{Allowed: true, Wide: false}
	askRemote(c, 50)

	// Install the coarse tier over the far/near layout.
	fixes := make(map[frame.NodeID]loc.Fix)
	for _, r := range testTopologyRecords(0) {
		fixes[r.Node] = r.Fix
	}
	c.SetJudge(testJudge(nil))
	c.SetFixes(func(id frame.NodeID) (loc.Fix, bool) {
		f, ok := fixes[id]
		return f, ok
	})

	// Tripping the breaker hands the decisions to the ladder.
	tripBreaker(t, c, tr, 7)

	// Stale rung: the wide cached verdict still justifies concurrency.
	v := askRemote(c, 30)
	if v.Source != comap.RemoteStale || !v.Allowed {
		t.Fatalf("stale verdict = %+v, want stale allow", v)
	}
	// A cached narrow verdict cannot: DCF floor.
	v = askRemote(c, 50)
	if v.Source != comap.RemoteUnavailable {
		t.Fatalf("narrow-cached verdict = %+v, want the DCF floor", v)
	}
	// No cache entry, but coarse geometry over the local registry clears the
	// far pairing.
	v = c.Verdict(farKey.Observer, farKey.Ongoing, farKey.MyDst, false, false)
	if v.Source != comap.RemoteCoarse || !v.Allowed {
		t.Fatalf("coarse verdict = %+v, want coarse allow", v)
	}
	// The hopeless interferer is denied even at the coarse rung: DCF.
	v = c.Verdict(nearKey.Observer, nearKey.Ongoing, nearKey.MyDst, false, false)
	if v.Source != comap.RemoteUnavailable {
		t.Fatalf("near coarse verdict = %+v, want the DCF floor", v)
	}

	// Past staleFor the stale entry expires and observer 30 (no local fix)
	// falls through the coarse tier to the DCF floor.
	fc.advance(staleFor + time.Millisecond)
	v = askRemote(c, 30)
	if v.Source != comap.RemoteUnavailable {
		t.Fatalf("expired-entry verdict = %+v, want the DCF floor", v)
	}

	st := c.Status()
	if st.RungDecisions["stale"] == 0 || st.RungDecisions["coarse"] == 0 || st.RungDecisions["dcf"] == 0 {
		t.Fatalf("ladder rungs not all exercised: %+v", st.RungDecisions)
	}
	if st.LadderTransitions == 0 {
		t.Fatal("no ladder transitions recorded")
	}
}

func TestClientEpochChangeTriggersResync(t *testing.T) {
	c, tr, fc := clientHarness()

	resyncRecs := []IngestRecord{
		{Op: RecReport, Node: 1, Fix: loc.Fix{Pos: geom.Point{X: 1}}},
		{Op: RecReport, Node: 2, Fix: loc.Fix{Pos: geom.Point{X: 2}}},
	}
	c.SetResync(func() []IngestRecord { return resyncRecs })

	// Failed invalidations must be queued, not lost: the breaker is closed
	// so each fire happens and fails, and the last one trips the breaker.
	tr.mode = "err"
	invalidated := []frame.NodeID{9, 5, 7, 6, 8}
	for _, id := range invalidated {
		c.InvalidateNode(id)
	}
	if st := c.Status(); st.Breaker != "open" {
		t.Fatalf("breaker after %d failed invalidations: %q", len(invalidated), st.Breaker)
	}
	// While the breaker is open, ingest traffic is suppressed entirely.
	before := len(tr.reqs)
	c.IngestFix(6, loc.Fix{})
	if len(tr.reqs) != before {
		t.Fatal("open breaker still sent ingest traffic")
	}

	// Service restarts: epoch bumps. The next successful call must notice
	// and resync — queued invalidations first, in node order, then the
	// registry dump.
	fc.advance(breakerCooldown)
	tr.mode = "ok"
	tr.epoch = 2
	tr.verdict = Verdict{Allowed: true, Wide: true}
	askRemote(c, 3)

	st := c.Status()
	if st.Resyncs != 1 || st.Epoch != 2 {
		t.Fatalf("resyncs=%d epoch=%d, want 1/2", st.Resyncs, st.Epoch)
	}
	// [5 failed OpInvalidateNode, probe OpVerdict, 5 replayed
	// OpInvalidateNode, resync OpIngest]
	var want []Op
	for range invalidated {
		want = append(want, OpInvalidateNode)
	}
	want = append(want, OpVerdict)
	for range invalidated {
		want = append(want, OpInvalidateNode)
	}
	want = append(want, OpIngest)
	if ops := tr.ops(); !slices.Equal(ops, want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	if last := tr.reqs[len(tr.reqs)-1]; len(last.Recs) != 2 || last.Recs[0].Node != 1 {
		t.Fatalf("resync ingest = %+v, want the registry dump", last.Recs)
	}
	for i, id := range []frame.NodeID{5, 6, 7, 8, 9} {
		if got := tr.reqs[len(invalidated)+1+i].Node; got != id {
			t.Fatalf("replayed invalidation %d for node %d, want %d", i, got, id)
		}
	}
}

func TestClientIngestStreams(t *testing.T) {
	c, tr, _ := clientHarness()
	c.IngestFix(7, loc.Fix{Pos: geom.Point{X: 3, Y: 4}})
	c.IngestDeregister(7)
	st := c.Status()
	if st.IngestCalls != 2 {
		t.Fatalf("ingest calls = %d, want 2", st.IngestCalls)
	}
	if len(tr.reqs) != 2 || tr.reqs[0].Op != OpIngest || tr.reqs[1].Op != OpIngest {
		t.Fatalf("ops = %v", tr.ops())
	}
	if tr.reqs[0].Recs[0].Op != RecReport || tr.reqs[1].Recs[0].Op != RecDeregister {
		t.Fatalf("record ops = %d,%d", tr.reqs[0].Recs[0].Op, tr.reqs[1].Recs[0].Op)
	}
}

// TestClientStatusJSONStable pins that Status marshals (the /healthz
// contract) without nil maps or surprises.
func TestClientStatusJSONStable(t *testing.T) {
	c, _, _ := clientHarness()
	st := c.Status()
	if st.RungDecisions == nil || len(st.RungDecisions) != 4 {
		t.Fatalf("rung decisions map %+v, want all four rungs present", st.RungDecisions)
	}
	for _, r := range []Rung{RungFresh, RungStale, RungCoarse, RungDCF} {
		if _, ok := st.RungDecisions[r.String()]; !ok {
			t.Errorf("rung %q missing from status", r)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
}
