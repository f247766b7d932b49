//go:build unix

package framelog

import "syscall"

const haveFlock = true

// flock attempts a non-blocking exclusive lock on fd.
func flock(fd uintptr) bool {
	return syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

func funlock(fd uintptr) { _ = syscall.Flock(int(fd), syscall.LOCK_UN) }
