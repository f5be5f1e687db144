package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTornTrailingNewline covers a crash that tears exactly the trailing
// newline of the last record: the unterminated line was never acknowledged
// and may be dropped, but a record appended after reopening must survive
// the next reopen.
func TestTornTrailingNewline(t *testing.T) {
	fp := Fingerprint{Scale: 0.5, Instructions: 1000, Units: "fuzz", ParamsTag: "tag"}
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("sens/a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear off the trailing newline only: the last line is complete JSON.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("expected trailing newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var v string
	if ok, _ := j2.Lookup("sens/a", &v); !ok {
		t.Log("sens/a dropped on recovery (acceptable: torn tail)")
	}
	if err := j2.Record("mix/9", "2"); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, err := Open(path, fp)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j3.Close()
	if ok, _ := j3.Lookup("mix/9", &v); !ok || v != "2" {
		raw, _ := os.ReadFile(path)
		t.Fatalf("acknowledged record mix/9 lost across reopen; file:\n%s", raw)
	}
}
