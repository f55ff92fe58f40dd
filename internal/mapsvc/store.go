package mapsvc

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store is the service's persistence backend: an append-only write-ahead
// log of ingest records plus periodic full snapshots. WriteSnapshot
// atomically replaces the snapshot and truncates the WAL; Load returns the
// last snapshot (as RecReport records) followed by the WAL records to
// replay over it.
//
// MemStore backs the deterministic in-simulation crash/recover model;
// DirStore persists to real files so comap-mapd survives a SIGKILL.
type Store interface {
	AppendWAL(recs []IngestRecord) error
	WriteSnapshot(recs []IngestRecord) error
	Load() (snapshot, wal []IngestRecord, err error)
}

// MemStore is an in-memory Store. It survives a Service.Crash (which only
// wipes the service's volatile state) exactly like a disk file survives a
// process kill, making in-sim recovery deterministic and I/O-free.
type MemStore struct {
	snap []IngestRecord
	wal  []IngestRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// AppendWAL appends copies of recs to the log.
func (m *MemStore) AppendWAL(recs []IngestRecord) error {
	m.wal = append(m.wal, recs...)
	return nil
}

// WriteSnapshot replaces the snapshot and truncates the WAL.
func (m *MemStore) WriteSnapshot(recs []IngestRecord) error {
	m.snap = append(m.snap[:0:0], recs...)
	m.wal = m.wal[:0:0]
	return nil
}

// Load returns the stored snapshot and WAL.
func (m *MemStore) Load() (snapshot, wal []IngestRecord, err error) {
	return append([]IngestRecord(nil), m.snap...), append([]IngestRecord(nil), m.wal...), nil
}

// DirStore persists the snapshot and WAL as binary files in a directory
// ("snapshot.dat", "wal.dat"). Snapshots are written to a temp file and
// renamed into place, so a crash mid-snapshot leaves the previous snapshot
// intact; a torn WAL tail is dropped and truncated at load time.
type DirStore struct {
	dir string
	wal *os.File
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mapsvc: create store dir: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal.dat"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mapsvc: open wal: %w", err)
	}
	return &DirStore{dir: dir, wal: wal}, nil
}

// Close closes the WAL file.
func (d *DirStore) Close() error { return d.wal.Close() }

// AppendWAL appends the encoded batch and syncs it to disk.
func (d *DirStore) AppendWAL(recs []IngestRecord) error {
	if _, err := d.wal.Write(EncodeRecords(recs)); err != nil {
		return fmt.Errorf("mapsvc: append wal: %w", err)
	}
	if err := d.wal.Sync(); err != nil {
		return fmt.Errorf("mapsvc: sync wal: %w", err)
	}
	return nil
}

// WriteSnapshot atomically replaces the snapshot file, then truncates the
// WAL (the snapshot subsumes it).
func (d *DirStore) WriteSnapshot(recs []IngestRecord) error {
	tmp := filepath.Join(d.dir, "snapshot.tmp")
	if err := os.WriteFile(tmp, EncodeRecords(recs), 0o644); err != nil {
		return fmt.Errorf("mapsvc: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, "snapshot.dat")); err != nil {
		return fmt.Errorf("mapsvc: publish snapshot: %w", err)
	}
	if err := d.wal.Close(); err != nil {
		return fmt.Errorf("mapsvc: rotate wal: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(d.dir, "wal.dat"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("mapsvc: rotate wal: %w", err)
	}
	d.wal = wal
	return nil
}

// Load reads the snapshot and WAL files; missing files read as empty. A
// torn WAL tail is dropped from the result and truncated from the file.
func (d *DirStore) Load() (snapshot, wal []IngestRecord, err error) {
	snapBytes, err := os.ReadFile(filepath.Join(d.dir, "snapshot.dat"))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("mapsvc: read snapshot: %w", err)
	}
	walBytes, err := os.ReadFile(filepath.Join(d.dir, "wal.dat"))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("mapsvc: read wal: %w", err)
	}
	if snapshot, err = DecodeRecords(snapBytes); err != nil {
		return nil, nil, err
	}
	if wal, err = DecodeRecords(walBytes); err != nil {
		return nil, nil, err
	}
	// Cut the dropped torn tail off the file as well: the WAL is opened for
	// appending, so bytes left past the last whole record would shift every
	// record appended after them.
	if whole := len(wal) * recordSize; whole < len(walBytes) {
		if err := d.wal.Truncate(int64(whole)); err != nil {
			return nil, nil, fmt.Errorf("mapsvc: truncate torn wal tail: %w", err)
		}
		if err := d.wal.Sync(); err != nil {
			return nil, nil, fmt.Errorf("mapsvc: sync wal: %w", err)
		}
	}
	return snapshot, wal, nil
}
