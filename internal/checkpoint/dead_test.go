package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func dlqFP() Fingerprint {
	return Fingerprint{Scale: 0.5, Instructions: 1000, Units: "test", ParamsTag: "tag"}
}

func TestDeadLetterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("sens/a", 1); err != nil {
		t.Fatal(err)
	}
	dl := DeadLetter{Key: "mix/3", Attempts: 3, Error: "injected fault", Stack: "goroutine 1 [running]"}
	if err := j.RecordDead(dl); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Dead("mix/3"); !ok || got != dl {
		t.Fatalf("Dead = %+v, %v", got, ok)
	}
	if j.DeadLen() != 1 || j.Len() != 1 {
		t.Fatalf("DeadLen=%d Len=%d", j.DeadLen(), j.Len())
	}
	if j.Done("mix/3") {
		t.Error("dead unit reported done")
	}
	j.Close()

	// A reopened journal recovers the dead letter byte-for-byte.
	j, err = Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	dls := j.DeadLetters()
	if len(dls) != 1 || dls[0] != dl {
		t.Fatalf("DeadLetters = %+v", dls)
	}
	if j.Resumed() != 1 {
		t.Errorf("Resumed = %d (dead letters must not count as completed)", j.Resumed())
	}
}

// The replay contract: a unit record for a dead key supersedes the dead
// letter, both live and across a reopen — the append-only file's way of
// saying "no longer poisoned".
func TestDeadLetterSupersededByUnitRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDead(DeadLetter{Key: "mix/1", Attempts: 3, Error: "poisoned"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("mix/1", map[string]int{"fixed": 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Dead("mix/1"); ok {
		t.Error("repaired unit still dead in the live journal")
	}
	if !j.Done("mix/1") {
		t.Error("repaired unit not done")
	}
	j.Close()

	j, err = Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.DeadLen() != 0 {
		t.Errorf("reopened DeadLen = %d, want 0 (unit record supersedes)", j.DeadLen())
	}
	var v map[string]int
	if ok, err := j.Lookup("mix/1", &v); !ok || err != nil || v["fixed"] != 1 {
		t.Errorf("Lookup = %v, %v, %v", ok, err, v)
	}
}

// Dead-lettering a completed unit must not shadow its result.
func TestDeadLetterNeverShadowsResult(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "run.ckpt"), dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("mix/1", 42); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDead(DeadLetter{Key: "mix/1", Attempts: 3, Error: "late poison"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Dead("mix/1"); ok {
		t.Error("completed unit reported dead")
	}
	if err := j.RecordDead(DeadLetter{Attempts: 1, Error: "anonymous"}); err == nil {
		t.Error("empty dead-letter key accepted")
	}
}

// Dead records interleaved with unit records must not truncate the replay:
// units journaled after a dead record survive a reopen.
func TestDeadRecordsDoNotTruncateReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("u/1", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDead(DeadLetter{Key: "d/1", Attempts: 3, Error: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("u/2", 2); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 || j.DeadLen() != 1 || !j.Done("u/2") {
		t.Fatalf("reopen: Len=%d DeadLen=%d u/2 done=%t (dead record truncated the replay?)", j.Len(), j.DeadLen(), j.Done("u/2"))
	}
	j.Close()

	// A torn final line after the interleaved records still truncates
	// cleanly and keeps everything before it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"unit","key":"u/3","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j, err = Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 || j.DeadLen() != 1 {
		t.Fatalf("after torn tail: Len=%d DeadLen=%d", j.Len(), j.DeadLen())
	}
	if j.Done("u/3") {
		t.Error("torn record resurrected")
	}
}

// The degraded-campaign journal shape end to end: healthy units recorded,
// one dead letter, reopened by a replay run that repairs it.
func TestDeadLetterReplayLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"mix/1", "mix/3"} {
		if err := j.Record(k, strings.ToUpper(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.RecordDead(DeadLetter{Key: "mix/2", Attempts: 3, Error: "poisoned unit"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Replay session: the dead key is the work list; completing it clears
	// the DLQ.
	j, err = Open(path, dlqFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	dls := j.DeadLetters()
	if len(dls) != 1 || dls[0].Key != "mix/2" {
		t.Fatalf("replay work list = %+v", dls)
	}
	if err := j.Record("mix/2", "MIX/2"); err != nil {
		t.Fatal(err)
	}
	if j.DeadLen() != 0 || j.Len() != 3 {
		t.Fatalf("after replay: DeadLen=%d Len=%d", j.DeadLen(), j.Len())
	}
}
