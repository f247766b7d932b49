//go:build !unix

package framelog

const haveFlock = false

func flock(fd uintptr) bool { return false }

func funlock(fd uintptr) {}
