package framelog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

var (
	keyless = Format{Magic: 0x54455354, Kinds: 2}
	keyed   = Format{Magic: 0x54455354, Kinds: 1, KeyLen: 16}
)

func mustFrame(t *testing.T, f Format, dst []byte, kind byte, key, payload []byte) []byte {
	t.Helper()
	out, err := f.AppendFrame(dst, kind, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendFrameLayout(t *testing.T) {
	key := bytes.Repeat([]byte{0xab}, 16)
	got := mustFrame(t, keyed, []byte("prefix"), 1, key, []byte("hello"))
	want := []byte("prefix")
	want = append(want, 'T', 'E', 'S', 'T', 1)
	want = append(want, key...)
	want = binary.BigEndian.AppendUint32(want, 5)
	want = binary.BigEndian.AppendUint32(want, Checksum([]byte("hello")))
	want = append(want, "hello"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame\n got %x\nwant %x", got, want)
	}
	if n := len(mustFrame(t, keyless, nil, 2, nil, nil)); n != 13 {
		t.Fatalf("empty keyless frame is %d bytes, want the 13-byte header", n)
	}
}

// scanAll scans data from off and returns what Scan reported plus the
// payloads it yielded.
func scanAll(f Format, data []byte, off int64) (int64, Verdict, []string) {
	var got []string
	end, v := f.Scan(bytes.NewReader(data), off, int64(len(data)), func(fr Frame) bool {
		got = append(got, string(fr.Payload))
		return true
	})
	return end, v, got
}

func TestScanVerdicts(t *testing.T) {
	var log []byte
	var ends []int
	for i, p := range []string{"one", "", "three"} {
		log = mustFrame(t, keyless, log, byte(i%2+1), nil, []byte(p))
		ends = append(ends, len(log))
	}
	lastStart := ends[1]
	damage := func(at int, b byte) []byte {
		d := bytes.Clone(log)
		d[at] = b
		return d
	}
	oversize := bytes.Clone(log)
	binary.BigEndian.PutUint32(oversize[lastStart+5:], MaxPayload+1)

	cases := []struct {
		name    string
		data    []byte
		end     int
		verdict Verdict
	}{
		{"clean", log, len(log), Clean},
		{"empty", nil, 0, Clean},
		{"bad magic", damage(lastStart, 'X'), lastStart, Corrupt},
		{"kind zero", damage(lastStart+4, 0), lastStart, Corrupt},
		{"kind past Kinds", damage(lastStart+4, 3), lastStart, Corrupt},
		{"oversize length", oversize, lastStart, Corrupt},
		{"crc mismatch", damage(len(log)-1, 'E'), lastStart, Corrupt},
		{"first frame damaged", damage(0, 'X'), 0, Corrupt},
	}
	// Every cut inside the last frame is a short tail, never corruption:
	// that is what a live writer mid-append looks like.
	for cut := lastStart + 1; cut < len(log); cut++ {
		cases = append(cases, struct {
			name    string
			data    []byte
			end     int
			verdict Verdict
		}{"cut", log[:cut], lastStart, ShortTail})
	}
	for _, c := range cases {
		end, v, got := scanAll(keyless, c.data, 0)
		wantFrames := 0
		for _, e := range ends {
			if e <= c.end {
				wantFrames++
			}
		}
		if end != int64(c.end) || v != c.verdict || len(got) != wantFrames {
			t.Errorf("%s (%d bytes): end=%d verdict=%d frames=%d, want end=%d verdict=%d frames=%d",
				c.name, len(c.data), end, v, len(got), c.end, c.verdict, wantFrames)
		}
	}

	// A scan resumes from where the last one stopped.
	if end, v, got := scanAll(keyless, log, int64(ends[0])); end != int64(len(log)) || v != Clean || len(got) != 2 || got[1] != "three" {
		t.Errorf("resumed scan: end=%d verdict=%d frames=%q", end, v, got)
	}
	// A rejecting yield stops the scan at the rejected frame, as corrupt.
	n := 0
	end, v := keyless.Scan(bytes.NewReader(log), 0, int64(len(log)), func(Frame) bool { n++; return n < 2 })
	if end != int64(ends[0]) || v != Corrupt {
		t.Errorf("rejected second frame: end=%d verdict=%d, want %d Corrupt", end, v, ends[0])
	}
}

func TestScanAndReadFrameCarryKeys(t *testing.T) {
	k1, k2 := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 16)
	log := mustFrame(t, keyed, nil, 1, k1, []byte("first"))
	second := len(log)
	log = mustFrame(t, keyed, log, 1, k2, []byte("second"))
	var keys [][]byte
	keyed.Scan(bytes.NewReader(log), 0, int64(len(log)), func(fr Frame) bool {
		keys = append(keys, fr.Key)
		return true
	})
	if len(keys) != 2 || !bytes.Equal(keys[0], k1) || !bytes.Equal(keys[1], k2) {
		t.Fatalf("scanned keys %x", keys)
	}

	r := bytes.NewReader(log)
	fr, err := keyed.ReadFrame(r, int64(second), 6)
	if err != nil || !bytes.Equal(fr.Key, k2) || string(fr.Payload) != "second" {
		t.Fatalf("ReadFrame: %+v, %v", fr, err)
	}
	if _, err := keyed.ReadFrame(r, int64(second), 5); err == nil {
		t.Error("ReadFrame accepted a wrong remembered length")
	}
	if _, err := keyed.ReadFrame(r, 3, 5); err == nil {
		t.Error("ReadFrame accepted an offset that is not a frame boundary")
	}
	if _, err := keyed.ReadFrame(r, int64(second), -1); err == nil {
		t.Error("ReadFrame accepted a negative length")
	}
	rotted := bytes.Clone(log)
	rotted[len(rotted)-1] ^= 1
	if _, err := keyed.ReadFrame(bytes.NewReader(rotted), int64(second), 6); err == nil {
		t.Error("ReadFrame returned a payload that fails its CRC")
	}
}

// TestLockFallback pins the two answers a build without flock gives, and,
// on builds that have it, that the real lock tells live from gone.
func TestLockFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.lock")
	open := func() *os.File {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	a, b := open(), open()
	if writerGone(false, a.Fd()) {
		t.Error("without flock, a free file's writer must be assumed live")
	}
	if !lockOwn(false, a.Fd()) || !lockOwn(false, b.Fd()) {
		t.Error("without flock, taking one's own lock must succeed, unenforced")
	}
	if !haveFlock {
		return
	}
	if !LockOwn(a) {
		t.Fatal("first LockOwn on a free file failed")
	}
	if LockOwn(b) || WriterGone(b) {
		t.Error("a held lock was taken again, or its writer reported gone")
	}
	Unlock(a)
	if !WriterGone(b) {
		t.Error("a released lock's writer was not reported gone")
	}
}
