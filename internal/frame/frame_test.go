package frame

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{Data, "DATA"},
		{Ack, "ACK"},
		{ComapHeader, "HDR"},
		{SRAck, "SRACK"},
		{LocationBeacon, "LOC"},
		{Kind(42), "Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestAirBytes(t *testing.T) {
	tests := []struct {
		f    Frame
		want int
	}{
		{Frame{Kind: Data, PayloadBytes: 1000}, 1028},
		{Frame{Kind: Data}, 28},
		{Frame{Kind: Ack}, 14},
		{Frame{Kind: SRAck}, 20},
		{Frame{Kind: ComapHeader}, 16},
		{Frame{Kind: LocationBeacon}, 34},
		{Frame{}, 28}, // unknown kinds fall back to a bare header
	}
	for _, tt := range tests {
		if got := tt.f.AirBytes(); got != tt.want {
			t.Errorf("AirBytes(%v) = %d, want %d", tt.f.Kind, got, tt.want)
		}
	}
}

func TestIsAck(t *testing.T) {
	if !(Frame{Kind: Ack}).IsAck() || !(Frame{Kind: SRAck}).IsAck() {
		t.Error("ACK kinds must report IsAck")
	}
	if (Frame{Kind: Data}).IsAck() || (Frame{Kind: ComapHeader}).IsAck() {
		t.Error("non-ACK kinds must not report IsAck")
	}
}

func TestFrameString(t *testing.T) {
	s := Frame{Kind: Data, Src: 1, Dst: 2, Seq: 5, PayloadBytes: 100}.String()
	for _, want := range []string{"DATA", "1->2", "seq=5", "len=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestBroadcastConstant(t *testing.T) {
	if Broadcast != 0xFFFF {
		t.Errorf("Broadcast = %v", Broadcast)
	}
}
