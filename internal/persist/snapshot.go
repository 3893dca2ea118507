package persist

import (
	"encoding/json"
	"fmt"
)

// snapshotHeader is the first line of every snapshot file. Version
// bumps change the suffix; decoders reject versions they do not
// understand (a downgrade-safe cold start beats misreading a future
// format).
const snapshotHeader = "mhla-snapshot v1"

// SnapshotRecord is one workspace-cache key: the canonical program
// bytes (modelio.EncodeProgram — the deterministic interchange encoding)
// plus their hex SHA-256 digest, which is the cache key itself
// (modelio.ProgramDigest). DecodeSnapshot verifies Digest ==
// DigestBytes(Program) for every record it returns, so a rewarm can
// never compile bytes that do not hash to the cache key they claim.
type SnapshotRecord struct {
	Digest  string `json:"digest"`
	Program []byte `json:"program_b64"` // canonical bytes; base64 on the wire via encoding/json
}

// EncodeSnapshot renders the snapshot file bytes for the given
// records, preserving order (most-valuable-last, by convention — the
// rewarm loop compiles in file order, so earlier records warm first).
func EncodeSnapshot(records []SnapshotRecord) ([]byte, error) {
	out := append([]byte(snapshotHeader), '\n')
	for i, rec := range records {
		if rec.Digest != DigestBytes(rec.Program) {
			return nil, fmt.Errorf("persist: snapshot record %d: digest %.12s does not match its program bytes",
				i, rec.Digest)
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("persist: snapshot record %d: %w", i, err)
		}
		out = append(out, encodeRecordLine(payload)...)
	}
	return out, nil
}

// DecodeSnapshot parses snapshot file bytes. It returns every record
// that verifies — framing intact, checksum correct, digest matching
// the program bytes — and a non-nil *FormatError (untrusted file) or
// *CorruptError (damaged records; the returned prefix is still good)
// when anything was wrong. It never panics, whatever the input.
func DecodeSnapshot(data []byte) ([]SnapshotRecord, error) {
	lines, partial := splitLines(data)
	if len(lines) == 0 {
		return nil, &FormatError{Path: "snapshot", Msg: "missing header"}
	}
	if string(lines[0]) != snapshotHeader {
		return nil, &FormatError{Path: "snapshot",
			Msg: fmt.Sprintf("unrecognized header %.40q (want %q)", string(lines[0]), snapshotHeader)}
	}
	var records []SnapshotRecord
	for i, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeSnapshotRecord(line)
		if err != nil {
			// Records after a damaged one are untrusted too: the damage
			// already proved the writer (or the medium) unreliable, and a
			// snapshot is all-or-nothing by construction (atomic rename),
			// so anything beyond the first bad record is not worth the
			// risk of rewarming from it.
			return records, &CorruptError{Path: "snapshot", Line: i + 2,
				Msg: err.Error(), Dropped: len(lines[1:]) - i}
		}
		records = append(records, rec)
	}
	if len(partial) > 0 {
		return records, &CorruptError{Path: "snapshot", Line: len(lines) + 1,
			Msg: "truncated trailing record", Dropped: 1}
	}
	return records, nil
}

func decodeSnapshotRecord(line []byte) (SnapshotRecord, error) {
	payload, err := decodeRecordLine(line)
	if err != nil {
		return SnapshotRecord{}, err
	}
	var rec SnapshotRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return SnapshotRecord{}, fmt.Errorf("malformed record payload: %v", err)
	}
	if rec.Digest == "" || len(rec.Program) == 0 {
		return SnapshotRecord{}, fmt.Errorf("record missing digest or program")
	}
	if rec.Digest != DigestBytes(rec.Program) {
		return SnapshotRecord{}, fmt.Errorf("digest %.12s does not match program bytes", rec.Digest)
	}
	return rec, nil
}

// WriteSnapshot atomically replaces the snapshot in dir: the encoded
// file is written (and synced) to a temporary name, then renamed over
// the live one, so a crash or write error at any point leaves the
// previous snapshot intact — readers never see a torn file.
func WriteSnapshot(fsys FS, dir string, records []SnapshotRecord) error {
	data, err := EncodeSnapshot(records)
	if err != nil {
		return err
	}
	tmp := snapshotTmpPath(dir)
	if err := fsys.WriteFile(tmp, data); err != nil {
		// Best effort: don't leave a half-written temp file behind.
		fsys.Remove(tmp)
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, SnapshotPath(dir)); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads and decodes the snapshot in dir. A missing file
// returns (nil, nil): a cold start, not an error. Damaged files return
// the verified prefix plus the typed error, exactly as DecodeSnapshot.
func ReadSnapshot(fsys FS, dir string) ([]SnapshotRecord, error) {
	data, err := fsys.ReadFile(SnapshotPath(dir))
	if err != nil {
		if IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}
