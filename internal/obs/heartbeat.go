package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// HeartbeatRecord is one JSONL line in the heartbeat sidecar: a periodic
// wall-clock pulse journaled next to the checkpoint so a resumed campaign
// can recover how long its predecessors ran. Unlike the checkpoint journal
// the heartbeat is advisory — a torn or missing file costs nothing but the
// prior-elapsed figure — so it is buffered-written without fsync.
type HeartbeatRecord struct {
	// AtUnixNs is the wall-clock instant of the beat.
	AtUnixNs int64 `json:"at_unix_ns"`
	// SessionSeconds is the emitting session's wall-clock age at the beat.
	SessionSeconds float64 `json:"session_seconds"`
	// TotalSeconds is SessionSeconds plus the prior elapsed recovered when
	// this session's heartbeat opened — the campaign's cumulative runtime.
	TotalSeconds float64 `json:"total_seconds"`
	// Done and Total mirror the progress snapshot at the beat.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Heartbeat appends HeartbeatRecords to a sidecar file. A nil *Heartbeat
// no-ops everywhere, like the rest of the package.
type Heartbeat struct {
	mu    sync.Mutex
	f     *os.File
	prior time.Duration
}

// OpenHeartbeat opens (appending) the heartbeat file at path and recovers
// the prior cumulative elapsed time from its last valid line. A missing,
// empty, or wholly corrupt file yields a zero prior — the campaign simply
// starts its clock fresh.
func OpenHeartbeat(path string) (*Heartbeat, error) {
	prior, tornTail := readPrior(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if tornTail {
		// The previous session died mid-beat, leaving a line without its
		// newline. Terminate it so this session's beats start on a clean
		// line instead of gluing onto the fragment.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Heartbeat{f: f, prior: prior}, nil
}

// readPrior scans path backwards for the last parseable record and returns
// its TotalSeconds. Torn final lines (the beat a kill interrupted) are
// expected and skipped; tornTail reports whether the file ends mid-line so
// the opener can terminate the fragment before appending.
func readPrior(path string) (prior time.Duration, tornTail bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	tornTail = len(data) > 0 && data[len(data)-1] != '\n'
	lines := bytes.Split(data, []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 {
			continue
		}
		var rec HeartbeatRecord
		if json.Unmarshal(line, &rec) == nil && rec.TotalSeconds >= 0 {
			return time.Duration(rec.TotalSeconds * float64(time.Second)), tornTail
		}
	}
	return 0, tornTail
}

// Prior returns the cumulative elapsed time recovered from previous
// sessions' beats — feed it to Progress.SetPrior. Nil-safe.
func (h *Heartbeat) Prior() time.Duration {
	if h == nil {
		return 0
	}
	return h.prior
}

// Beat appends one pulse derived from the progress snapshot. Errors are
// deliberately swallowed: a heartbeat that cannot be written must never
// fail the campaign it is observing. Nil-safe.
func (h *Heartbeat) Beat(s Snapshot) {
	if h == nil {
		return
	}
	rec := HeartbeatRecord{
		AtUnixNs:       time.Now().UnixNano(),
		SessionSeconds: s.ElapsedSeconds,
		TotalSeconds:   s.TotalElapsedSeconds,
		Done:           s.Done,
		Total:          s.Total,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return
	}
	h.f.Write(append(line, '\n'))
}

// Close releases the heartbeat file. Nil-safe.
func (h *Heartbeat) Close() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return nil
	}
	err := h.f.Close()
	h.f = nil
	return err
}
