package persist

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// snapRec builds a verified snapshot record from program bytes.
func snapRec(program string) SnapshotRecord {
	return SnapshotRecord{Digest: DigestBytes([]byte(program)), Program: []byte(program)}
}

// TestSnapshotRoundTrip: encode → decode preserves records and order.
func TestSnapshotRoundTrip(t *testing.T) {
	records := []SnapshotRecord{
		snapRec(`{"name":"a"}`),
		snapRec(`{"name":"b","arrays":[1,2,3]}`),
		snapRec(`{"name":"c"}`),
	}
	data, err := EncodeSnapshot(records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode of a clean snapshot errored: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("got %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i].Digest != records[i].Digest || !bytes.Equal(got[i].Program, records[i].Program) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], records[i])
		}
	}
}

// TestSnapshotEncodeRejectsBadDigest: the encoder refuses to persist a
// record whose digest does not match its bytes — corruption must not
// be writable, let alone readable.
func TestSnapshotEncodeRejectsBadDigest(t *testing.T) {
	rec := snapRec(`{"name":"a"}`)
	rec.Digest = DigestBytes([]byte("something else"))
	if _, err := EncodeSnapshot([]SnapshotRecord{rec}); err == nil {
		t.Fatal("EncodeSnapshot accepted a digest-mismatched record")
	}
}

// TestSnapshotDecodeCorruption: torn tails, bit flips, bad headers and
// forged digests all yield typed errors, and only verified records
// come back.
func TestSnapshotDecodeCorruption(t *testing.T) {
	records := []SnapshotRecord{snapRec(`{"name":"a"}`), snapRec(`{"name":"b"}`), snapRec(`{"name":"c"}`)}
	clean, err := EncodeSnapshot(records)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		var fe *FormatError
		if _, err := DecodeSnapshot(nil); !errors.As(err, &fe) {
			t.Fatalf("empty input: err = %v, want *FormatError", err)
		}
	})
	t.Run("foreign header", func(t *testing.T) {
		var fe *FormatError
		if _, err := DecodeSnapshot([]byte("mhla-snapshot v999\n")); !errors.As(err, &fe) {
			t.Fatalf("future version: err = %v, want *FormatError", err)
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		torn := clean[:len(clean)-7] // cut into the last record's line
		got, err := DecodeSnapshot(torn)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("torn tail: err = %v, want *CorruptError", err)
		}
		if len(got) != 2 {
			t.Fatalf("torn tail: %d records survived, want the 2 intact ones", len(got))
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		flipped := append([]byte(nil), clean...)
		// Flip a byte inside the second record's base64 payload.
		lines := bytes.SplitAfter(flipped, []byte("\n"))
		lines[2][len(lines[2])/2] ^= 0x01
		got, err := DecodeSnapshot(bytes.Join(lines, nil))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit flip: err = %v, want *CorruptError", err)
		}
		// Only the prefix before the damage is trusted.
		if len(got) != 1 || got[0].Digest != records[0].Digest {
			t.Fatalf("bit flip: got %d records, want the 1 before the damage", len(got))
		}
	})
	t.Run("forged digest", func(t *testing.T) {
		// A record with a valid frame checksum but a digest that does not
		// match its program bytes: the frame survives transport, but the
		// record lies about its identity — it must not decode.
		payload := []byte(fmt.Sprintf(`{"digest":%q,"program_b64":"e30="}`, DigestBytes([]byte("not {}"))))
		forged := append([]byte(snapshotHeader+"\n"), encodeRecordLine(payload)...)
		got, err := DecodeSnapshot(forged)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("forged digest: err = %v, want *CorruptError", err)
		}
		if len(got) != 0 {
			t.Fatalf("forged digest: %d records decoded, want 0", len(got))
		}
	})
}

// TestWriteSnapshotAtomic: a failed write or rename leaves the
// previous snapshot untouched; success replaces it completely.
func TestWriteSnapshotAtomic(t *testing.T) {
	mem := NewMemFS()
	fsys := NewFaultFS(mem)
	first := []SnapshotRecord{snapRec(`{"name":"v1"}`)}
	if err := WriteSnapshot(fsys, "d", first); err != nil {
		t.Fatal(err)
	}

	second := []SnapshotRecord{snapRec(`{"name":"v2"}`), snapRec(`{"name":"v2b"}`)}
	fsys.FailWrites(errors.New("injected write error"))
	if err := WriteSnapshot(fsys, "d", second); err == nil {
		t.Fatal("WriteSnapshot succeeded under an injected write error")
	}
	fsys.FailWrites(nil)
	fsys.FailRenames(errors.New("injected rename error"))
	if err := WriteSnapshot(fsys, "d", second); err == nil {
		t.Fatal("WriteSnapshot succeeded under an injected rename error")
	}
	fsys.FailRenames(nil)

	// Both failures left the v1 snapshot fully intact.
	got, err := ReadSnapshot(fsys, "d")
	if err != nil {
		t.Fatalf("snapshot damaged by failed replacement: %v", err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Program, first[0].Program) {
		t.Fatalf("snapshot content changed under failed replacement: %+v", got)
	}

	if err := WriteSnapshot(fsys, "d", second); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadSnapshot(fsys, "d"); err != nil || len(got) != 2 {
		t.Fatalf("replacement snapshot: %d records, err %v", len(got), err)
	}
}

// TestWriteSnapshotENOSPC: an exhausted byte budget fails the write
// with ErrNoSpace and the previous snapshot survives.
func TestWriteSnapshotENOSPC(t *testing.T) {
	fsys := NewFaultFS(NewMemFS())
	if err := WriteSnapshot(fsys, "d", []SnapshotRecord{snapRec(`{"name":"v1"}`)}); err != nil {
		t.Fatal(err)
	}
	fsys.SetByteBudget(10)
	err := WriteSnapshot(fsys, "d", []SnapshotRecord{snapRec(`{"name":"v2"}`)})
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	fsys.SetByteBudget(-1)
	got, err := ReadSnapshot(fsys, "d")
	if err != nil || len(got) != 1 {
		t.Fatalf("snapshot after ENOSPC: %d records, err %v", len(got), err)
	}
}

// TestReadSnapshotMissing: no snapshot file is a cold start, not an
// error.
func TestReadSnapshotMissing(t *testing.T) {
	got, err := ReadSnapshot(NewMemFS(), "d")
	if got != nil || err != nil {
		t.Fatalf("missing snapshot: got %v, err %v; want nil, nil", got, err)
	}
}

// journalFixture appends the given records through a real Journal and
// returns the filesystem.
func journalFixture(t *testing.T, records ...JournalRecord) *MemFS {
	t.Helper()
	mem := NewMemFS()
	j, err := OpenJournal(mem, "d")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return mem
}

func submitRec(id, tenant string, priority int) JournalRecord {
	return JournalRecord{Op: OpSubmit, ID: id, Tenant: tenant, Priority: priority,
		Kind: "run", Request: []byte(`{"app":"durbin"}`)}
}

// TestJournalReplay: the full state machine — submits without
// terminals are live, started ones are interrupted with counted
// attempts, terminal ones are gone, order is submission order.
func TestJournalReplay(t *testing.T) {
	mem := journalFixture(t,
		submitRec("j1", "alice", 5),
		submitRec("j2", "bob", 5),
		JournalRecord{Op: OpStart, ID: "j1", Attempt: 1},
		submitRec("j3", "alice", 9),
		JournalRecord{Op: OpDone, ID: "j1"},
		JournalRecord{Op: OpStart, ID: "j2", Attempt: 1},
		submitRec("j4", "carol", 5),
		JournalRecord{Op: OpStart, ID: "j2", Attempt: 2},
		JournalRecord{Op: OpCanceled, ID: "j3"},
	)
	data, err := mem.ReadFile(JournalPath("d"))
	if err != nil {
		t.Fatal(err)
	}
	records, err := DecodeJournal(data)
	if err != nil {
		t.Fatalf("clean journal decode errored: %v", err)
	}
	live := Replay(records)
	if len(live) != 2 {
		t.Fatalf("live jobs = %d, want 2 (j2 interrupted, j4 queued): %+v", len(live), live)
	}
	j2, j4 := live[0], live[1]
	if j2.ID != "j2" || !j2.Interrupted || j2.Attempts != 2 {
		t.Fatalf("j2 = %+v, want interrupted with 2 attempts", j2)
	}
	if j4.ID != "j4" || j4.Interrupted || j4.Attempts != 0 {
		t.Fatalf("j4 = %+v, want queued with 0 attempts", j4)
	}
}

// TestJournalTornTail: a crash mid-append loses exactly the torn
// record; the durable prefix replays cleanly.
func TestJournalTornTail(t *testing.T) {
	mem := journalFixture(t,
		submitRec("j1", "alice", 5),
		submitRec("j2", "bob", 5),
	)
	path := JournalPath("d")
	if !mem.Truncate(path, mem.Len(path)-9) {
		t.Fatal("truncate failed")
	}
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := DecodeJournal(data)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("torn journal: err = %v, want *CorruptError", err)
	}
	live := Replay(records)
	if len(live) != 1 || live[0].ID != "j1" {
		t.Fatalf("torn journal replay = %+v, want exactly j1", live)
	}
}

// TestJournalCompact: compaction rewrites the journal to the live set
// (attempts preserved) and the compacted file keeps accepting appends.
func TestJournalCompact(t *testing.T) {
	mem := journalFixture(t,
		submitRec("j1", "alice", 5),
		JournalRecord{Op: OpStart, ID: "j1", Attempt: 1},
		JournalRecord{Op: OpDone, ID: "j1"},
		submitRec("j2", "bob", 5),
		JournalRecord{Op: OpStart, ID: "j2", Attempt: 1},
	)
	data, _ := mem.ReadFile(JournalPath("d"))
	records, err := DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	live := Replay(records)
	j, err := CompactJournal(mem, "d", live)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: OpStart, ID: "j2", Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, _ = mem.ReadFile(JournalPath("d"))
	records, err = DecodeJournal(data)
	if err != nil {
		t.Fatalf("compacted journal decode errored: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("compacted journal has %d records, want 2 (submit + start)", len(records))
	}
	live = Replay(records)
	if len(live) != 1 || live[0].ID != "j2" || live[0].Attempts != 2 || !live[0].Interrupted {
		t.Fatalf("post-compaction replay = %+v, want j2 interrupted with 2 attempts", live)
	}
}

// TestJournalAppendFailureSurfaces: injected append and sync failures
// come back as errors (the caller degrades durability, never crashes).
func TestJournalAppendFailureSurfaces(t *testing.T) {
	fsys := NewFaultFS(NewMemFS())
	j, err := OpenJournal(fsys, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fsys.FailAppends(errors.New("injected append error"))
	if err := j.Append(submitRec("j1", "alice", 5)); err == nil {
		t.Fatal("Append succeeded under an injected write error")
	}
	fsys.FailAppends(nil)
	if err := j.Append(submitRec("j1", "alice", 5)); err != nil {
		t.Fatalf("Append after the fault cleared: %v", err)
	}
}

// TestRetryPolicyDelayBounds: delays are positive, jittered within
// [d/2, d], monotonically capped by maxDelay, and defaults are sane.
func TestRetryPolicyDelayBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5}
	for attempts := 1; attempts <= 10; attempts++ {
		ideal := baseDelay
		for i := 1; i < attempts && ideal < maxDelay; i++ {
			ideal *= 2
		}
		if ideal > maxDelay {
			ideal = maxDelay
		}
		for trial := 0; trial < 50; trial++ {
			d := p.Delay(attempts)
			if d < ideal/2 || d > ideal {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempts, d, ideal/2, ideal)
			}
		}
	}
	var zero RetryPolicy
	if d := zero.Delay(1); d <= 0 || d > 30*time.Second {
		t.Fatalf("zero-policy Delay(1) = %v", d)
	}
	if zero.WithDefaults().MaxAttempts != 3 {
		t.Fatalf("default MaxAttempts = %d, want 3", zero.WithDefaults().MaxAttempts)
	}
}

// TestManualClock: timers fire on Advance in deadline order, tickers
// deliver due ticks, Stop prevents firing.
func TestManualClock(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	var fired []string
	clk.AfterFunc(2*time.Second, func() { fired = append(fired, "b") })
	clk.AfterFunc(1*time.Second, func() { fired = append(fired, "a") })
	stop := clk.AfterFunc(3*time.Second, func() { fired = append(fired, "never") })
	stop.Stop()
	tick := clk.NewTicker(time.Second)
	clk.Advance(5 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want [b a] or [a b]", fired)
	}
	select {
	case <-tick.C():
	default:
		t.Fatal("ticker never ticked across 5 periods")
	}
	tick.Stop()
}
