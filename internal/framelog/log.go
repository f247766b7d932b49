package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ErrLocked reports that a live writer holds the lock being taken.
var ErrLocked = errors.New("held by a live writer")

var (
	errClosed = errors.New("framelog: closed")
	errBroken = errors.New("framelog: a failed append could not be undone; writer refuses further appends")
)

// file is what the write path needs of an *os.File. Every file framelog
// writes frames to is opened through openFile and renamed through rename,
// so the crash drill can substitute ones that fail on cue.
type file interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
	Fd() uintptr
}

var (
	openFile = func(name string, flag int, perm os.FileMode) (file, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	rename = os.Rename
)

// Writer appends frames to a file it alone writes.
type Writer struct {
	f      file
	size   int64
	broken bool
}

// Create claims path as a fresh file (O_EXCL) and takes its writer lock,
// held until Close. A name already taken fails with os.ErrExist, one whose
// lock a live writer somehow holds with ErrLocked.
func Create(path string) (*Writer, error) {
	f, err := openFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if !lockOwn(haveFlock, f.Fd()) {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, ErrLocked)
	}
	return &Writer{f: f}, nil
}

// Append writes one whole frame with one write and makes it durable with
// one fsync, returning the offset it landed at. On failure the file is cut
// back to the last good frame (see the package comment); if that fails too
// the writer is Broken.
func (w *Writer) Append(frame []byte) (int64, error) {
	if w.broken {
		return 0, errBroken
	}
	_, err := w.f.Write(frame)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		if w.f.Truncate(w.size) != nil {
			w.broken = true
		}
		return 0, err
	}
	off := w.size
	w.size += int64(len(frame))
	return off, nil
}

// Size is the offset just past the last good frame.
func (w *Writer) Size() int64 { return w.size }

// Broken reports that a failed append left bytes behind that could not be
// truncated away; the owner must move to a fresh file.
func (w *Writer) Broken() bool { return w.broken }

// Close releases the writer lock and the file.
func (w *Writer) Close() error {
	funlock(w.f.Fd())
	return w.f.Close()
}

// Log is a single-file, single-writer frame log that can be rewritten in
// place. Its methods are not safe for concurrent use; owners serialize.
type Log struct {
	format Format
	path   string
	lock   *os.File // <name>.lock: never renamed over, so its inode and flock are stable
	w      *Writer  // nil once closed
}

// Open opens (creating if needed) the log dir/name and takes its writer
// lock, dir/<name minus extension>.lock; a second live opener gets
// ErrLocked rather than interleaved appends.
func Open(dir, name string, format Format) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lockPath := filepath.Join(dir, strings.TrimSuffix(name, filepath.Ext(name))+".lock")
	lock, err := os.OpenFile(lockPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if !LockOwn(lock) {
		lock.Close()
		return nil, fmt.Errorf("%s is %w", dir, ErrLocked)
	}
	l := &Log{format: format, path: filepath.Join(dir, name), lock: lock}
	if err := l.reopen(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// reopen points the writer at whatever file is now at l.path.
func (l *Log) reopen() error {
	l.w = nil
	f, err := openFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := os.Stat(l.path)
	if err != nil {
		f.Close()
		return err
	}
	l.w = &Writer{f: f, size: fi.Size()}
	return nil
}

// Scan hands every valid frame, in order, to yield (see Format.Scan) and
// returns how many trailing bytes it did not accept: a torn or corrupt
// tail, which the owner's next Rewrite physically drops.
func (l *Log) Scan(yield func(Frame) bool) (torn int64, err error) {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return 0, err
	}
	end, _ := l.format.Scan(bytes.NewReader(data), 0, int64(len(data)), yield)
	return int64(len(data)) - end, nil
}

// Append makes one frame durable at the end of the log.
func (l *Log) Append(frame []byte) error {
	if l.w == nil {
		return errClosed
	}
	_, err := l.w.Append(frame)
	return err
}

// Size is the log's length in bytes, torn tail excluded once rewritten.
func (l *Log) Size() int64 {
	if l.w == nil {
		return 0
	}
	return l.w.size
}

// Rewrite replaces the log's contents with frames (whole frames, already
// encoded) via temp file, fsync and rename. On failure before the rename
// the old log is untouched and still appendable; a failure to reopen after
// it closes the log, so appends error rather than land on the old inode.
func (l *Log) Rewrite(frames []byte) error {
	if l.w == nil {
		return errClosed
	}
	tmp := l.path + ".tmp"
	err := writeSynced(tmp, frames)
	if err == nil {
		err = rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	l.w.f.Close()
	return l.reopen()
}

func writeSynced(path string, data []byte) error {
	f, err := openFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the log and its lock; it is idempotent.
func (l *Log) Close() error {
	var err error
	if l.w != nil {
		err = l.w.f.Close()
		l.w = nil
	}
	if l.lock != nil {
		Unlock(l.lock)
		l.lock.Close()
		l.lock = nil
	}
	return err
}
