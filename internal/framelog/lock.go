package framelog

import "os"

// The advisory lock has one mechanism (flock, where the build has it) and
// two questions. Builds without flock answer both conservatively: taking
// one's own lock succeeds unenforced, and no foreign writer is ever proven
// gone. Such builds therefore get no double-open protection for the
// journal and catalog, no cross-process single-flight from the plan
// store's claims, and never truncate another writer's torn tail (it is
// ignored instead — still correct, just never cleaned). Unix hosts, the
// deployment target, get the real lock.

// LockOwn takes the caller's own writer lock on f, reporting false when a
// live writer already holds it. Without flock it reports true.
func LockOwn(f *os.File) bool { return lockOwn(haveFlock, f.Fd()) }

// WriterGone reports whether f's writer is provably gone — its lock was
// free — and, when it is, leaves the lock held by the caller (Unlock
// releases it) so no writer appears mid-repair. Without flock it reports
// false: assume live.
func WriterGone(f *os.File) bool { return writerGone(haveFlock, f.Fd()) }

// Unlock releases a lock taken by LockOwn or WriterGone. Closing the file
// or exiting the process releases it too.
func Unlock(f *os.File) { funlock(f.Fd()) }

func lockOwn(have bool, fd uintptr) bool    { return !have || flock(fd) }
func writerGone(have bool, fd uintptr) bool { return have && flock(fd) }
