// Package persist is the durability layer behind the serving daemon: a
// versioned, checksummed snapshot format and a length-prefixed, CRC-framed
// write-ahead log, both written through deterministic fault-injection hooks
// so the recovery suite can kill the writer at every point and prove the
// on-disk state always replays to a consistent ledger.
//
// A Store owns one directory holding at most one live (snapshot, WAL)
// generation pair: snap-<gen>.snap is the full serialized daemon state,
// wal-<gen>.wal the records appended since that snapshot. Snapshots are
// written atomically (temp file, fsync, rename, fsync dir), so a crash at
// any byte leaves either the old or the new generation fully intact — never
// a half snapshot under the live name. Rotate writes the next generation's
// snapshot and opens its empty WAL before deleting the previous pair, so
// recovery always finds a complete generation. WAL appends are fsynced by
// default; a torn final record (the expected artifact of crashing
// mid-append) is detected by its frame checksum, truncated away, and
// replay resumes cleanly — any earlier framing damage is corruption and
// surfaces as a typed error instead of partial state.
//
// The format functions (EncodeSnapshot/DecodeSnapshot, DecodeWALRecords)
// are pure so they can be fuzzed directly: corrupt, truncated or
// version-skewed input yields ErrCorruptSnapshot or ErrTornWAL, never a
// panic.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// snapMagic identifies snapshot files; the trailing two bytes are the
	// format version. A future incompatible format bumps them, and readers
	// reject the skew with ErrCorruptSnapshot instead of misparsing.
	// Version 02 stores range-strategy streams as their exact answer vector;
	// version 01 stored a summed-area table of the same float type, which
	// must never be read as answers.
	snapMagic = "BFSNAP02"
	// walMagic likewise identifies and versions WAL files.
	walMagic = "BFWAL001"

	// snapHeaderLen is magic + uint64 payload length + uint32 CRC.
	snapHeaderLen = 8 + 8 + 4
	// recHeaderLen frames one WAL record: uint32 length + uint32 CRC.
	recHeaderLen = 4 + 4

	// MaxRecord caps one WAL record's payload so corrupt length prefixes
	// cannot drive huge allocations during replay.
	MaxRecord = 1 << 28
)

// crcTable is CRC-32C (Castagnoli), the common storage checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrCorruptSnapshot reports a snapshot file that fails validation:
	// wrong magic, version skew, truncation, or a checksum mismatch. A
	// snapshot is either fully valid or rejected — never partially loaded.
	ErrCorruptSnapshot = errors.New("persist: corrupt snapshot")

	// ErrTornWAL reports a WAL whose tail frame fails validation — the
	// expected leftover of a crash mid-append. Replay returns every record
	// before the tear; the Store truncates the tear away on open.
	ErrTornWAL = errors.New("persist: torn WAL")
)

// EncodeSnapshot frames payload as a snapshot file image: magic+version,
// payload length, CRC-32C, payload.
func EncodeSnapshot(payload []byte) []byte {
	out := make([]byte, snapHeaderLen+len(payload))
	copy(out, snapMagic)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(payload, crcTable))
	copy(out[snapHeaderLen:], payload)
	return out
}

// DecodeSnapshot validates a snapshot file image and returns its payload.
// Every failure mode — short file, wrong magic, version skew, length
// mismatch, checksum mismatch — wraps ErrCorruptSnapshot.
func DecodeSnapshot(b []byte) ([]byte, error) {
	if len(b) < snapHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorruptSnapshot, len(b), snapHeaderLen)
	}
	if string(b[:6]) != snapMagic[:6] {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, b[:6])
	}
	if string(b[6:8]) != snapMagic[6:8] {
		return nil, fmt.Errorf("%w: unsupported snapshot version %q (want %q)", ErrCorruptSnapshot, b[6:8], snapMagic[6:8])
	}
	n := binary.LittleEndian.Uint64(b[8:])
	if n != uint64(len(b)-snapHeaderLen) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file carries %d", ErrCorruptSnapshot, n, len(b)-snapHeaderLen)
	}
	payload := b[snapHeaderLen:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[16:]); got != want {
		return nil, fmt.Errorf("%w: payload checksum %08x != header %08x", ErrCorruptSnapshot, got, want)
	}
	return payload, nil
}

// AppendRecord frames one WAL record onto buf: uint32 payload length,
// uint32 CRC-32C, payload.
func AppendRecord(buf, rec []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(rec, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, rec...)
}

// DecodeWALRecords walks the record frames of a WAL body (the bytes after
// the file header) and returns the fully valid records plus the byte offset
// of the valid prefix. A clean end returns err == nil; anything else — a
// short frame, an oversized length prefix, a checksum mismatch — wraps
// ErrTornWAL, with every record before the tear still returned so the
// caller can truncate at n and continue.
func DecodeWALRecords(b []byte) (recs [][]byte, n int, err error) {
	off := 0
	for off < len(b) {
		if len(b)-off < recHeaderLen {
			return recs, off, fmt.Errorf("%w: %d trailing bytes at offset %d are shorter than a record header", ErrTornWAL, len(b)-off, off)
		}
		ln := binary.LittleEndian.Uint32(b[off:])
		if ln > MaxRecord {
			return recs, off, fmt.Errorf("%w: record at offset %d claims %d bytes (cap %d)", ErrTornWAL, off, ln, MaxRecord)
		}
		want := binary.LittleEndian.Uint32(b[off+4:])
		body := b[off+recHeaderLen:]
		if uint32(len(body)) < ln {
			return recs, off, fmt.Errorf("%w: record at offset %d claims %d bytes, only %d remain", ErrTornWAL, off, ln, len(body))
		}
		rec := body[:ln]
		if got := crc32.Checksum(rec, crcTable); got != want {
			return recs, off, fmt.Errorf("%w: record at offset %d checksum %08x != header %08x", ErrTornWAL, off, got, want)
		}
		// Copy out: callers keep records after the backing file buffer dies.
		recs = append(recs, append([]byte(nil), rec...))
		off += recHeaderLen + int(ln)
	}
	return recs, off, nil
}

// DecodeWAL validates a whole WAL file image (header + records). It is the
// fuzzing entry point: version-skewed or damaged headers wrap ErrTornWAL,
// and record walking behaves exactly as DecodeWALRecords.
func DecodeWAL(b []byte) (recs [][]byte, n int, err error) {
	if len(b) < len(walMagic) {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the %d-byte file header", ErrTornWAL, len(b), len(walMagic))
	}
	if string(b[:5]) != walMagic[:5] {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrTornWAL, b[:5])
	}
	if string(b[5:8]) != walMagic[5:8] {
		return nil, 0, fmt.Errorf("%w: unsupported WAL version %q (want %q)", ErrTornWAL, b[5:8], walMagic[5:8])
	}
	recs, n, err = DecodeWALRecords(b[len(walMagic):])
	return recs, n + len(walMagic), err
}
