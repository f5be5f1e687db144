package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// failAppends opens a journal at a fresh path with one durable unit, then
// closes its file underneath it so the next write fails.
func failAppends(t *testing.T) (*Journal, string, Fingerprint) {
	t.Helper()
	fp := Fingerprint{Scale: 0.5, Instructions: 1000, Units: "append-failure", ParamsTag: "tag"}
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("sens/a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	return j, path, fp
}

// TestFailedRecordStaysUndone: a Record whose write fails returns the error
// and leaves the key undone in memory and absent on disk, and every later
// append returns the failure even once writes could succeed again, so
// nothing lands after a possibly torn line. A reopen recovers, and the
// retried Record is durable.
func TestFailedRecordStaysUndone(t *testing.T) {
	j, path, fp := failAppends(t)
	if err := j.Record("mix/1", "2"); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Record on a failed file: err = %v, want os.ErrClosed", err)
	}
	if j.Done("mix/1") {
		t.Fatal("key reads as done after its append failed")
	}
	if ok, _ := j.Lookup("mix/1", nil); ok {
		t.Fatal("Lookup finds a key whose append failed")
	}

	// A working handle does not clear the failure: the append after a
	// failed one must not run.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("mix/2", "3"); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Record after a failed append: err = %v, want the earlier os.ErrClosed", err)
	}
	if j.Done("mix/2") {
		t.Fatal("key reads as done after a refused append")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("a refused append wrote to the journal:\n%s", after[len(before):])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Done("sens/a") {
		t.Error("durable unit sens/a lost")
	}
	for _, k := range []string{"mix/1", "mix/2"} {
		if j2.Done(k) {
			t.Errorf("reopened journal holds %s, whose append failed", k)
		}
	}
	if err := j2.Record("mix/1", "2"); err != nil {
		t.Fatalf("retry after reopen: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	var v string
	if ok, err := j3.Lookup("mix/1", &v); err != nil || !ok || v != "2" {
		t.Fatalf("retried unit mix/1: ok=%v err=%v v=%q", ok, err, v)
	}
}

// TestFailedRecordDeadStaysUndone: the same for dead letters — a failed
// RecordDead leaves the key not dead in memory and absent on disk.
func TestFailedRecordDeadStaysUndone(t *testing.T) {
	j, path, fp := failAppends(t)
	if err := j.RecordDead(DeadLetter{Key: "mix/3", Attempts: 3, Error: "poison"}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("RecordDead on a failed file: err = %v, want os.ErrClosed", err)
	}
	if _, ok := j.Dead("mix/3"); ok {
		t.Fatal("key reads as dead after its append failed")
	}
	if n := j.DeadLen(); n != 0 {
		t.Fatalf("DeadLen = %d after a failed append, want 0", n)
	}
	_ = j.Close() // reports the file closed underneath it; nothing to release
	j2, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Dead("mix/3"); ok {
		t.Error("reopened journal holds a dead letter whose append failed")
	}
	if !j2.Done("sens/a") {
		t.Error("durable unit sens/a lost")
	}
}
