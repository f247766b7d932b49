// Package framelog is the one place that knows how this repository frames,
// recovers, locks and rewrites a durable record. The plan store's segments
// (internal/planstore), the job journal (internal/service) and the reuse
// catalog (internal/catalog) are its three users; each keeps only what its
// records mean.
//
// # Record discipline
//
// A log is a flat sequence of frames, all integers big-endian:
//
//	magic   uint32          Format.Magic
//	kind    uint8           1..Format.Kinds
//	key     [KeyLen]byte    Format.KeyLen bytes (none for the journal and catalog)
//	length  uint32          payload byte count, at most MaxPayload
//	crc     uint32          CRC-32C (Castagnoli) over the payload
//	payload [length]byte
//
// A frame is valid when magic and kind match, the whole payload is present
// and the CRC verifies. Scan stops at the first frame that is not and says
// why: a short tail is a writer mid-append (or a crash mid-append) and is
// not corruption; a bad magic or kind, an oversize length, or a CRC
// mismatch on a complete frame is. Nothing past the stop is ever read, so
// damage costs the records behind it, never a wrong record.
//
// An append is one write(2) of one whole frame followed by one fsync, by
// the file's only writer. When either fails, the file is truncated back to
// the end of the last good frame before the error is returned, so the
// failed frame leaves nothing a later scan could stop at: every later
// append that returns nil is found by the next recovery. If even the
// truncate fails, the writer refuses further appends.
//
// A log is rewritten (compacted) by writing the surviving frames to
// <log>.tmp, fsyncing, renaming over the log and reopening it; a crash or
// failure at any point leaves either the old or the new log whole, and no
// failure path leaves the temp file behind.
//
// Single-writer is enforced with an advisory flock held for the writer's
// lifetime — on the file itself for files that are never renamed over
// (plan segments, claim files), on a sibling <log>.lock with a stable
// inode for logs that are. The lock, not the file's existence, is the
// claim: it vanishes with a crashed process. See LockOwn and WriterGone
// for what builds without flock get.
package framelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// MaxPayload bounds a frame's payload; a larger length field is corruption.
// Real payloads are a few KB.
const MaxPayload = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C every frame carries over its payload.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Format names one log's framing: its magic, how many record kinds it has
// (valid kinds are 1..Kinds) and the length of the key each header carries.
type Format struct {
	Magic  uint32
	Kinds  byte
	KeyLen int
}

// Frame is one valid record. Off is the offset of its header.
type Frame struct {
	Kind    byte
	Key     []byte
	Payload []byte
	Off     int64
}

func (f Format) headerSize() int { return 4 + 1 + f.KeyLen + 4 + 4 }

// AppendFrame appends the framing of payload to dst (nil allocates a buffer
// of exactly the frame's size) and returns the extended buffer. key must be
// KeyLen bytes.
func (f Format) AppendFrame(dst []byte, kind byte, key, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("framelog: record of %d bytes exceeds limit", len(payload))
	}
	dst = slices.Grow(dst, f.headerSize()+len(payload))
	dst = binary.BigEndian.AppendUint32(dst, f.Magic)
	dst = append(dst, kind)
	dst = append(dst, key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...), nil
}

// parseHeader validates a header's magic, kind and length bound and returns
// its fields; key aliases hdr.
func (f Format) parseHeader(hdr []byte) (kind byte, key []byte, n int, crc uint32, ok bool) {
	kind, rest := hdr[4], hdr[5+f.KeyLen:]
	n = int(binary.BigEndian.Uint32(rest))
	ok = binary.BigEndian.Uint32(hdr) == f.Magic && kind >= 1 && kind <= f.Kinds && n <= MaxPayload
	return kind, hdr[5 : 5+f.KeyLen], n, binary.BigEndian.Uint32(rest[4:]), ok
}

// Verdict says why a scan stopped.
type Verdict int

const (
	// Clean: every byte up to size belonged to a valid frame.
	Clean Verdict = iota
	// ShortTail: the bytes past the last valid frame are too few to be the
	// frame they start — an append in progress, or one a crash cut short.
	ShortTail
	// Corrupt: the next frame is provably damaged (bad magic or kind,
	// oversize length, CRC mismatch with the whole payload present) or
	// yield rejected it.
	Corrupt
)

// Scan reads frames from r starting at off, where size is r's length, and
// hands each valid one to yield (nil accepts everything; returning false
// rejects the frame as corrupt). It returns the offset just past the last
// accepted frame — where a later scan resumes, or where a writer-less file
// is truncated — and the verdict. Keys and payloads are freshly allocated
// and may be retained.
func (f Format) Scan(r io.ReaderAt, off, size int64, yield func(Frame) bool) (int64, Verdict) {
	hs := int64(f.headerSize())
	hdr := make([]byte, hs)
	for off+hs <= size {
		if _, err := r.ReadAt(hdr, off); err != nil {
			return off, ShortTail // the file shrank under us; not proof of damage
		}
		kind, key, n, crc, ok := f.parseHeader(hdr)
		if !ok {
			return off, Corrupt
		}
		if off+hs+int64(n) > size {
			return off, ShortTail
		}
		payload := make([]byte, n)
		if _, err := r.ReadAt(payload, off+hs); err != nil {
			return off, ShortTail
		}
		if Checksum(payload) != crc {
			return off, Corrupt
		}
		fr := Frame{Kind: kind, Key: slices.Clone(key), Payload: payload, Off: off}
		if yield != nil && !yield(fr) {
			return off, Corrupt
		}
		off += hs + int64(n)
	}
	if off < size {
		return off, ShortTail
	}
	return off, Clean
}

// ReadFrame reads and verifies the one frame at off whose payload is n
// bytes: a remembered location that no longer holds such a frame (stale
// index, disk rot) is an error, never a wrong payload. The caller checks
// the key.
func (f Format) ReadFrame(r io.ReaderAt, off int64, n int) (Frame, error) {
	if n < 0 || n > MaxPayload || off < 0 {
		return Frame{}, errors.New("framelog: bad record location")
	}
	hs := f.headerSize()
	buf := make([]byte, hs+n)
	if _, err := r.ReadAt(buf, off); err != nil {
		return Frame{}, err
	}
	kind, key, length, crc, ok := f.parseHeader(buf[:hs])
	switch {
	case !ok:
		return Frame{}, errors.New("framelog: bad record header")
	case length != n:
		return Frame{}, errors.New("framelog: record length mismatch")
	case Checksum(buf[hs:]) != crc:
		return Frame{}, errors.New("framelog: record checksum mismatch")
	}
	return Frame{Kind: kind, Key: key, Payload: buf[hs:], Off: off}, nil
}
