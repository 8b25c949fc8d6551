// Package replay replays recorded LLRP report streams through the
// localization pipeline at Nx real time (or unthrottled) and reports
// throughput, latency digests, and a fix-parity hash — the regression
// harness that turns a captured deployment into a repeatable benchmark
// and a recovery-correctness check.
//
// The capture format is the segmented ingest WAL (internal/wal) that
// every dwatchd environment writes under -wal-dir; Source abstracts it
// so tests can feed synthetic streams.
package replay

import (
	"time"

	"dwatch/internal/wal"
)

// Item is one recorded LLRP message on its way back into the pipeline.
type Item struct {
	// Seq is the WAL sequence number.
	Seq uint64
	// At is the original capture timestamp — the pacing reference.
	At      time.Time
	Type    uint16
	Payload []byte
}

// Source yields recorded messages in capture order. Next returns
// io.EOF after the last item; a WAL source stops cleanly at the first
// damaged record (see WALSource.Damage).
type Source interface {
	Next() (Item, error)
	Close() error
}

// WALSource replays a WAL directory.
type WALSource struct {
	r *wal.Reader
}

// OpenWAL opens dir's segments for replay.
func OpenWAL(dir string) (*WALSource, error) {
	r, err := wal.OpenReader(dir)
	if err != nil {
		return nil, err
	}
	return &WALSource{r: r}, nil
}

func (s *WALSource) Next() (Item, error) {
	rec, err := s.r.Next()
	if err != nil {
		return Item{}, err
	}
	return Item{Seq: rec.Seq, At: rec.At, Type: rec.Type, Payload: rec.Payload}, nil
}

// Damage reports where the log stopped being trustworthy, nil when the
// scan ran clean to the end. Meaningful once Next has returned io.EOF.
func (s *WALSource) Damage() *wal.Damage { return s.r.Damage() }

func (s *WALSource) Close() error { return s.r.Close() }
