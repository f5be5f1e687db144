package fsutil

// LockFile acquires an exclusive advisory lock on path, creating the file
// if needed, and blocks until the lock is available. It returns an unlock
// func that releases the lock and closes the underlying descriptor.
//
// The lock is cross-process where the platform supports it (flock(2) on
// unix): two processes locking the same path exclude each other, and the
// kernel releases the lock automatically if the holder dies — no stale
// lock files to clean up, which matters for campaign processes that may
// be killed at any instant. On platforms without advisory locking the
// call succeeds without providing exclusion; callers must therefore use it
// only for single-flight deduplication (avoiding duplicate work), never
// for correctness — anything published under the lock must still be
// crash-safe on its own (see AtomicFile).
func LockFile(path string) (func() error, error) {
	return lockFile(path)
}
