package planstore

// claims.go extends the per-process single-flight of GetOrCompute across
// processes: before computing, a replica takes a claim on the address — a
// flock-held file under dir/claims/ — and replicas that find the claim held
// poll the store instead of computing, so N concurrent submissions of one
// workflow across a whole cluster of replicas cost exactly one
// optimization.
//
// The discipline is the same crash-safe one the segment writers (and
// internal/catalog) use: the flock, not the file's existence, is the claim.
// A replica that dies mid-compute drops its lock with its process, so the
// next waiter's try-acquire simply succeeds and takes the computation over
// — a stale claim file can delay nothing and deadlock nothing. A finished
// owner removes its claim file before unlocking; an acquirer therefore
// re-verifies (via inode identity) that the file it locked is still the
// file at the claim path, and treats a lock on an orphaned inode as a
// failed attempt.

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"github.com/stubby-mr/stubby/internal/framelog"
)

// claimPollInterval is how often a waiting replica re-probes the store and
// re-tries the claim. Optimizations run for milliseconds to seconds, so a
// short poll keeps waiters prompt without meaningful load (each probe is an
// in-memory map lookup plus, at worst, a directory rescan).
const claimPollInterval = 10 * time.Millisecond

// claim is one held cross-process claim: the flocked file under claims/.
type claim struct{ f *os.File }

func (c *claim) release() {
	// Remove before unlocking: once the path is gone no fresh opener can
	// lock this inode, and anyone who raced the removal fails the inode
	// identity check below and retries against the new path.
	_ = os.Remove(c.f.Name())
	framelog.Unlock(c.f)
	_ = c.f.Close()
}

func (s *Store) claimPath(addr Address) string {
	return filepath.Join(s.dir, "claims", addr.String()+".lock")
}

// tryClaim attempts to become the cluster-wide computing replica for addr.
// Any failure — the lock held elsewhere, an orphaned inode, an I/O error —
// reports false; the caller waits and retries.
func (s *Store) tryClaim(addr Address) (*claim, bool) {
	path := s.claimPath(addr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false
	}
	if !framelog.LockOwn(f) {
		f.Close()
		return nil, false
	}
	fi, ferr := f.Stat()
	di, derr := os.Stat(path)
	if ferr != nil || derr != nil || !os.SameFile(fi, di) {
		framelog.Unlock(f)
		f.Close()
		return nil, false
	}
	return &claim{f: f}, true
}

// waitOrClaim blocks until this process holds addr's claim (the caller must
// compute), another replica's publish for addr lands (the answer is the
// returned document), or ctx ends. Exactly one of claim/doc is non-nil on a
// nil error.
func (s *Store) waitOrClaim(ctx context.Context, key Key, addr Address) (*claim, []byte, error) {
	if cl, ok := s.tryClaim(addr); ok {
		s.claims.Add(1)
		return cl, nil, nil
	}
	s.claimWaits.Add(1)
	timer := time.NewTimer(claimPollInterval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-timer.C:
		}
		if doc, ok, err := s.Get(key); err != nil {
			return nil, nil, err
		} else if ok {
			s.claimHits.Add(1)
			return nil, doc, nil
		}
		if cl, ok := s.tryClaim(addr); ok {
			s.claims.Add(1)
			return cl, nil, nil
		}
		timer.Reset(claimPollInterval)
	}
}
