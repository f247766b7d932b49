//go:build !unix

package main

import "time"

// cpuTime is not available here; process.cpu_ms_per_job reads 0.
func cpuTime() time.Duration { return 0 }
