package planstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/stubby-mr/stubby/internal/framelog"
)

// Segment files hold a flat sequence of framelog frames (see that package
// for the record discipline) with magic "SPLN", the single kind
// recKindPlan, and the record's 128-bit content address as the 16-byte
// key; the payload is the stored document.
var recFormat = framelog.Format{Magic: 0x53504c4e, Kinds: recKindPlan, KeyLen: 16}

const (
	recKindPlan = 1

	segPrefix = "seg-"
	segSuffix = ".log"
)

func addressOf(key []byte) Address {
	return Address{binary.BigEndian.Uint64(key), binary.BigEndian.Uint64(key[8:])}
}

// segmentWriter owns one append-only segment file, holding its exclusive
// flock for the writer's lifetime so other processes can tell a live
// writer from a dead one.
type segmentWriter struct {
	name string
	*framelog.Writer
}

// openSegmentWriter claims a fresh segment file with O_EXCL, retrying past
// names already taken by concurrent writers.
func openSegmentWriter(segDir string) (*segmentWriter, error) {
	for n := 1; n < 1_000_000; n++ {
		name := fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix)
		w, err := framelog.Create(filepath.Join(segDir, name))
		if errors.Is(err, os.ErrExist) || errors.Is(err, framelog.ErrLocked) {
			// A dead writer's O_EXCL file persists, but its lock does not,
			// so ErrLocked means a live writer somehow shares the name
			// (clock-free counter reuse). Skip it like a taken name.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("planstore: create segment: %w", err)
		}
		return &segmentWriter{name: name, Writer: w}, nil
	}
	return nil, errors.New("planstore: segment namespace exhausted")
}

// append writes one record and returns the record's starting offset.
func (w *segmentWriter) append(addr Address, payload []byte) (int64, error) {
	var key [16]byte
	binary.BigEndian.PutUint64(key[:], addr[0])
	binary.BigEndian.PutUint64(key[8:], addr[1])
	frame, err := recFormat.AppendFrame(nil, recKindPlan, key[:], payload)
	if err != nil {
		return 0, err
	}
	return w.Append(frame)
}

// close releases the flock and removes the segment entirely when it never
// received a record (so idle replicas don't litter the directory).
func (w *segmentWriter) close(segDir string) error {
	empty := w.Size() == 0
	err := w.Close()
	if empty {
		_ = os.Remove(filepath.Join(segDir, w.name))
	}
	return err
}

// readRecordPayload re-reads and re-verifies one record's payload. The
// address and CRC are both checked, so a stale index entry (or disk rot)
// reads as absence, never as a wrong document.
func readRecordPayload(path string, off int64, n int, want Address) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fr, err := recFormat.ReadFrame(f, off, n)
	if err != nil {
		return nil, err
	}
	if addressOf(fr.Key) != want {
		return nil, errors.New("planstore: record address mismatch")
	}
	return fr.Payload, nil
}
