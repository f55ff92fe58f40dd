package mapsvc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/loc"
)

// Ingest-record operations.
const (
	// RecReport upserts a node's committed fix.
	RecReport uint8 = 1
	// RecDeregister removes a node's fix (the node left the network).
	RecDeregister uint8 = 2
)

// IngestRecord is one entry of the registry change stream: a committed fix
// or a deregistration. The same record is the wire format of the streaming
// ingest endpoint and the on-disk WAL entry, so replay and re-ingest share
// one codec.
type IngestRecord struct {
	Op   uint8
	Node frame.NodeID
	Fix  loc.Fix
}

// recordSize is the fixed binary encoding length of one IngestRecord:
// op(1) + node(2) + x(8) + y(8) + reportedAtNs(8) + errRadius(8).
const recordSize = 35

// AppendRecord encodes one record (little-endian, fixed 35 bytes) onto buf.
func AppendRecord(buf []byte, r IngestRecord) []byte {
	var b [recordSize]byte
	b[0] = r.Op
	binary.LittleEndian.PutUint16(b[1:3], uint16(r.Node))
	binary.LittleEndian.PutUint64(b[3:11], math.Float64bits(r.Fix.Pos.X))
	binary.LittleEndian.PutUint64(b[11:19], math.Float64bits(r.Fix.Pos.Y))
	binary.LittleEndian.PutUint64(b[19:27], uint64(r.Fix.ReportedAt.Nanoseconds()))
	binary.LittleEndian.PutUint64(b[27:35], math.Float64bits(r.Fix.ErrorRadiusMeters))
	return append(buf, b[:]...)
}

// EncodeRecords encodes a batch as concatenated fixed-size records.
func EncodeRecords(recs []IngestRecord) []byte {
	return appendRecords(make([]byte, 0, len(recs)*recordSize), recs)
}

// appendRecords encodes recs onto buf.
func appendRecords(buf []byte, recs []IngestRecord) []byte {
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

// DecodeRecords decodes concatenated records. A trailing partial record
// (torn tail of a WAL cut short by a crash) is tolerated and dropped;
// a record with an unknown op is an error, and so is a report whose position
// is not finite or whose error radius is negative or not finite (a negative
// radius would make worst-case verdicts optimistic).
func DecodeRecords(data []byte) ([]IngestRecord, error) {
	return decodeInto(make([]IngestRecord, 0, len(data)/recordSize), data)
}

// decodeInto is DecodeRecords appending to dst, so a caller can reuse one
// record buffer across batches.
func decodeInto(dst []IngestRecord, data []byte) ([]IngestRecord, error) {
	dst = slices.Grow(dst, len(data)/recordSize)
	for i := 0; len(data) >= recordSize; i++ {
		b := data[:recordSize]
		data = data[recordSize:]
		r := IngestRecord{
			Op:   b[0],
			Node: frame.NodeID(binary.LittleEndian.Uint16(b[1:3])),
		}
		if r.Op != RecReport && r.Op != RecDeregister {
			return nil, fmt.Errorf("mapsvc: unknown ingest op %d", r.Op)
		}
		r.Fix = loc.Fix{
			ReportedAt:        time.Duration(int64(binary.LittleEndian.Uint64(b[19:27]))),
			ErrorRadiusMeters: math.Float64frombits(binary.LittleEndian.Uint64(b[27:35])),
		}
		r.Fix.Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(b[3:11]))
		r.Fix.Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[11:19]))
		if r.Op == RecReport {
			if err := checkFix(r.Fix); err != nil {
				return nil, fmt.Errorf("mapsvc: ingest record %d (node %d): %w", i, r.Node, err)
			}
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// checkFix reports the first invalid field of a reported fix.
func checkFix(f loc.Fix) error {
	switch {
	case !finite(f.Pos.X):
		return fmt.Errorf("x %v is not finite", f.Pos.X)
	case !finite(f.Pos.Y):
		return fmt.Errorf("y %v is not finite", f.Pos.Y)
	case !finite(f.ErrorRadiusMeters) || f.ErrorRadiusMeters < 0:
		return fmt.Errorf("error radius %v is not a finite non-negative number", f.ErrorRadiusMeters)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
