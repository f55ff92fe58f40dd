package topology

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

func TestParseLocTrace(t *testing.T) {
	const src = `# comment, then a blank line

500ms move 1001 12.5 -3
1s leave 1002
2s join 1002
250ms move 1003 0 0
`
	tr, err := ParseLocTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(tr.Events))
	}
	// Sorted by time: the 250ms move leads despite appearing last.
	if tr.Events[0].Node != 1003 || tr.Events[0].Op != LocMove {
		t.Fatalf("first event = %+v, want the 250ms move", tr.Events[0])
	}
	ev := tr.Events[1]
	if ev.At != 500*time.Millisecond || ev.Op != LocMove || ev.Node != 1001 || ev.Pos != geom.Pt(12.5, -3) {
		t.Fatalf("second event = %+v", ev)
	}
	if tr.Events[2].Op != LocLeave || tr.Events[3].Op != LocJoin {
		t.Fatalf("churn events out of order: %+v %+v", tr.Events[2], tr.Events[3])
	}
}

func TestParseLocTraceErrorsNameLines(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"short line", "1s move\n", "line 1"},
		{"bad time", "xyz move 1 0 0\n", "bad time"},
		{"negative time", "-1s move 1 0 0\n", "negative time"},
		{"bad node", "1s move 99999 0 0\n", "bad node id"},
		{"bad op", "1s teleport 1\n", "unknown op"},
		{"move arity", "1s move 1 5\n", "move wants"},
		{"leave arity", "1s leave 1 5\n", "leave wants"},
		{"nan coord", "1s move 1 NaN 0\n", "bad coordinates"},
		{"line number", "# ok\n1s move 1 0 0\nbroken\n", "line 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseLocTrace(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLocTraceRoundTrip(t *testing.T) {
	top, err := CityScale(DefaultCityConfig(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	tr := SynthesizeCityTrace(top, rand.New(rand.NewSource(11)), CityTraceConfig{Duration: 2 * time.Second})
	if len(tr.Events) == 0 {
		t.Fatal("synthesized trace is empty")
	}
	var sb strings.Builder
	if _, err := tr.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseLocTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip changed event count: %d != %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != back.Events[i] {
			t.Fatalf("event %d changed: %+v != %+v", i, tr.Events[i], back.Events[i])
		}
	}
}

func TestSynthesizeCityTraceDeterministicAndDisjoint(t *testing.T) {
	top, err := CityScale(DefaultCityConfig(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := CityTraceConfig{Duration: 3 * time.Second}
	a := SynthesizeCityTrace(top, rand.New(rand.NewSource(5)), cfg)
	b := SynthesizeCityTrace(top, rand.New(rand.NewSource(5)), cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different event counts: %d != %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed diverges at event %d", i)
		}
	}
	movers, churners := map[int]bool{}, map[int]bool{}
	for _, ev := range a.Events {
		switch ev.Op {
		case LocMove:
			movers[int(ev.Node)] = true
			if !top.World.Contains(ev.Pos) {
				t.Fatalf("move of node %d leaves the world: %v", ev.Node, ev.Pos)
			}
		case LocLeave, LocJoin:
			churners[int(ev.Node)] = true
		}
	}
	if len(movers) == 0 || len(churners) == 0 {
		t.Fatalf("want both walkers and churners, got %d / %d", len(movers), len(churners))
	}
	for id := range churners {
		if movers[id] {
			t.Fatalf("node %d both walks and churns; the sets must be disjoint", id)
		}
	}
}

// FuzzParseLocTrace checks the .loc parser never panics and that every
// trace it accepts survives WriteTo and a second parse unchanged.
func FuzzParseLocTrace(f *testing.F) {
	f.Add("# comment, then a blank line\n\n500ms move 1001 12.5 -3\n1s leave 1002\n2s join 1002\n250ms move 1003 0 0\n")
	for _, src := range []string{
		"1s move\n", "xyz move 1 0 0\n", "-1s move 1 0 0\n", "1s move 99999 0 0\n",
		"1s teleport 1\n", "1s move 1 5\n", "1s leave 1 5\n", "1s move 1 NaN 0\n",
		"# ok\n1s move 1 0 0\nbroken\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseLocTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		if _, err := tr.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := ParseLocTrace(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse of %q: %v", sb.String(), err)
		}
		if len(back.Events) != len(tr.Events) {
			t.Fatalf("round trip changed event count: %d != %d", len(back.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if tr.Events[i] != back.Events[i] {
				t.Fatalf("event %d changed: %+v != %+v", i, tr.Events[i], back.Events[i])
			}
		}
	})
}
