package framelog

import (
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// Faults is the test side of the file seam: each counter, while positive,
// fails that many upcoming operations on files framelog opens. Zero faults
// behave exactly like the real file system.
type Faults struct {
	mu sync.Mutex
	// WriteLog fails a frame append the way a full disk does: half the
	// bytes land, then ENOSPC.
	WriteLog int
	// WriteTemp does the same to a rewrite's *.tmp file.
	WriteTemp int
	// Sync, Truncate and Rename fail outright with EIO, changing nothing.
	Sync, Truncate, Rename int
}

// InjectFaults routes framelog's file operations through a fresh Faults
// until the test ends.
func InjectFaults(t testing.TB) *Faults {
	fl := new(Faults)
	prevOpen, prevRename := openFile, rename
	t.Cleanup(func() { openFile, rename = prevOpen, prevRename })
	openFile = func(name string, flag int, perm os.FileMode) (file, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &faultyFile{File: f, fl: fl, temp: strings.HasSuffix(name, ".tmp")}, nil
	}
	rename = func(oldpath, newpath string) error {
		if fl.take(&fl.Rename) {
			return syscall.EIO
		}
		return os.Rename(oldpath, newpath)
	}
	return fl
}

// Set arms the counters under the lock stores' own goroutines read them by.
func (fl *Faults) Set(arm func(*Faults)) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	arm(fl)
}

func (fl *Faults) take(n *int) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if *n <= 0 {
		return false
	}
	*n--
	return true
}

type faultyFile struct {
	*os.File
	fl   *Faults
	temp bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	n := &f.fl.WriteLog
	if f.temp {
		n = &f.fl.WriteTemp
	}
	if f.fl.take(n) {
		half, _ := f.File.Write(p[:len(p)/2])
		return half, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if !f.temp && f.fl.take(&f.fl.Sync) {
		return syscall.EIO
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.fl.take(&f.fl.Truncate) {
		return syscall.EIO
	}
	return f.File.Truncate(size)
}
