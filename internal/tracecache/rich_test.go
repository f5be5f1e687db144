package tracecache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// randomRichEvents builds a stream exercising the rich encoding: every
// kind, every flag combination, addresses both for misses and for
// monitor-observed hits, random monitor masks (the full 16-bit range) on
// every monitor-observed access, and a measured-end marker at the given
// position.
func randomRichEvents(n, marker int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	addr := uint64(3 << 44)
	for i := range events {
		if i == marker {
			events[i] = Event{Kind: KindMeasuredEnd}
			continue
		}
		ev := Event{Kind: uint8(rng.Intn(3)), NonMem: uint32(rng.Intn(1 << 20))}
		if ev.Kind != KindNoMem {
			ev.Flags = uint8(rng.Intn(int(flagsMask) + 1))
			if ev.Kind == KindL1Hit {
				// A hit carries no L1 eviction/writeback.
				ev.Flags &^= FlagL1Evict | FlagL1Writeback
			}
		} else {
			// Non-mem events carry only the public-progress flag.
			ev.Flags = uint8(rng.Intn(2)) * FlagPublic
		}
		if richHasAddr(ev.Kind, ev.Flags) {
			addr += uint64(rng.Intn(1<<24)) - 1<<23
			ev.Addr = addr
		}
		if ev.Flags&FlagMonObserve != 0 {
			ev.MonMask = uint16(rng.Intn(1 << 16))
		}
		events[i] = ev
	}
	return events
}

func TestRichRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	events := randomRichEvents(20_000, 15_000, 42)
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(events); {
		n := 1 + (i*11)%487
		if i+n > len(events) {
			n = len(events) - i
		}
		if err := w.WriteEvents(events[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	for _, batch := range []int{1, 7, 4096, 100_000} {
		r, err := st.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			t.Fatal("expected a hit")
		}
		if !r.Rich() {
			t.Fatal("reader does not report the rich encoding")
		}
		got, err := readAll(r, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		r.Close()
		if len(got) != len(events) {
			t.Fatalf("batch %d: decoded %d events, want %d", batch, len(got), len(events))
		}
		masks := 0
		for _, ev := range got {
			if ev.MonMask > 0x7F {
				masks++ // a multi-byte mask varint
			}
		}
		if masks == 0 {
			t.Fatalf("batch %d: no multi-byte monitor mask decoded; the stream does not exercise the mask field", batch)
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("batch %d: event %d = %+v, want %+v", batch, i, got[i], events[i])
			}
		}
	}
}

// TestRichWriterRejectsMalformedEvents: the writer validates what the
// decoder would reject, so a bug upstream cannot persist an undecodable
// entry.
func TestRichWriterRejectsMalformedEvents(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   Event
	}{
		{"kind out of range", Event{Kind: 4}},
		{"flags out of range", Event{Kind: KindL1Hit, Flags: 1 << 7}},
		{"marker with flags", Event{Kind: KindMeasuredEnd, Flags: FlagPublic}},
		{"marker with nonmem", Event{Kind: KindMeasuredEnd, NonMem: 1}},
		{"marker with addr", Event{Kind: KindMeasuredEnd, Addr: 64}},
		{"marker with mask", Event{Kind: KindMeasuredEnd, MonMask: 1}},
		{"mask on an unobserved access", Event{Kind: KindL1Miss, Flags: FlagWrite, Addr: 64, MonMask: 3}},
	}
	for i, c := range cases {
		key := mixTestKey()
		key.Benchmark = key.Benchmark + string(rune('a'+i))
		w, err := st.CreateRich(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEvents([]Event{c.ev}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		w.Close()
	}
}

// TestClassicWriterRejectsRichFields: the classic encoding cannot carry
// flags or the marker kind; writing them through Create must fail rather
// than silently drop bits.
func TestClassicWriterRejectsRichFields(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create(testKey("mcf_0"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteEvents([]Event{{Kind: KindL1Hit, Flags: FlagWrite}}); err == nil {
		t.Error("classic writer accepted an event with flags")
	}
	if err := w.WriteEvents([]Event{{Kind: KindMeasuredEnd}}); err == nil {
		t.Error("classic writer accepted a measured-end marker")
	}
	if err := w.WriteEvents([]Event{{Kind: KindL1Miss, Addr: 64, MonMask: 0x1FF}}); err == nil {
		t.Error("classic writer accepted an event with a monitor mask")
	}
}

// TestRichCorruptMaskRejected: a monitor mask is a 16-bit vector; a stored
// value above 0xFFFF must surface as corruption, never be truncated into
// some other vector.
func TestRichCorruptMaskRejected(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	// One observed access at address 0 with an all-ones mask: control byte,
	// non-mem 0x00, address delta 0x00, then the mask varint ff ff 03.
	ev := Event{Kind: KindL1Hit, Flags: FlagMonObserve, MonMask: 0xFFFF}
	if err := w.WriteEvents([]Event{ev, {Kind: KindMeasuredEnd}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := st.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.LittleEndian.Uint32(raw[8:12]))
	first := (8 + 4 + hlen + 63) / 64 * 64
	if got := raw[first+3 : first+6]; got[0] != 0xFF || got[1] != 0xFF || got[2] != 0x03 {
		t.Fatalf("mask bytes %x, want ff ff 03: the layout moved", got)
	}
	raw[first+5] = 0x07 // the varint now decodes to 0x1FFFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := st.Open(key)
	if err != nil || r == nil {
		t.Fatalf("open: r=%v err=%v", r, err)
	}
	_, err = readAll(r, 4096)
	r.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read error = %v, want ErrCorrupt", err)
	}
}

// TestRichSpareBitRejected: the encoding reserves control bit 7; a set
// spare bit on disk must surface as corruption, not decode as something.
func TestRichSpareBitRejected(t *testing.T) {
	st, err := NewStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(randomRichEvents(100, 50, 9)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := st.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Set the spare bit on the first control byte of the first data block
	// (the header is zero-padded to a block boundary). The decoder's
	// spare-bit check fires before the footer CRC would.
	hlen := int(binary.LittleEndian.Uint32(raw[8:12]))
	first := (8 + 4 + hlen + 63) / 64 * 64
	raw[first] |= 1 << 7
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := st.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Skip("entry demoted on open") // rebuild-disabled stores surface it below
	}
	_, err = readAll(r, 4096)
	r.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read error = %v, want ErrCorrupt", err)
	}
}

// TestOldFormatVersionRejected: an entry written by format version 1 (rich
// entries without monitor masks) fails loudly on open, and a store opened
// with rebuild demotes it to a counted miss so the caller regenerates it.
func TestOldFormatVersionRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	key := mixTestKey()
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(randomRichEvents(100, 50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := st.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := []byte(`"version":2,`)
	i := bytes.Index(raw, cur)
	if FormatVersion != 2 || i < 0 {
		t.Fatalf("header does not hold %s", cur)
	}
	raw[i+len(cur)-2] = '1'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := st.Open(key); !errors.Is(err, ErrKeyMismatch) {
		if r != nil {
			r.Close()
		}
		t.Fatalf("open of a v1 entry: err = %v, want ErrKeyMismatch", err)
	}
	rb, err := NewStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rb.Open(key); r != nil || err != nil {
		t.Fatalf("rebuild open of a v1 entry: r=%v err=%v, want a miss", r, err)
	}
	if c := rb.Counters(); c.Rebuilds != 1 || c.Misses != 1 {
		t.Errorf("rebuild counters = %+v, want one rebuild and one miss", c)
	}
}
