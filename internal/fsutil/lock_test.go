package fsutil

import (
	"path/filepath"
	"testing"
	"time"
)

// Two independent acquisitions of the same lock path (distinct
// descriptors, as two processes would hold) must exclude each other — this
// is the cross-process single-flight guarantee concurrent campaigns over
// one cache directory rely on to avoid generating the same trace-cache
// entry twice.
func TestLockFileExcludes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entry.fetrace.lock")

	unlock1, err := LockFile(path)
	if err != nil {
		t.Fatal(err)
	}

	acquired := make(chan func() error, 1)
	go func() {
		unlock2, err := LockFile(path)
		if err != nil {
			t.Error(err)
			acquired <- func() error { return nil }
			return
		}
		acquired <- unlock2
	}()

	select {
	case <-acquired:
		t.Fatal("second acquisition succeeded while first lock held")
	case <-time.After(100 * time.Millisecond):
	}

	if err := unlock1(); err != nil {
		t.Fatal(err)
	}
	select {
	case unlock2 := <-acquired:
		if err := unlock2(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second acquisition never completed after release")
	}
}

// Re-acquiring after a full acquire/release cycle must work — the unlock
// func releases both the lock and the descriptor.
func TestLockFileReacquire(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lock")
	for i := 0; i < 3; i++ {
		unlock, err := LockFile(path)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := unlock(); err != nil {
			t.Fatalf("cycle %d unlock: %v", i, err)
		}
	}
}
