// Package wal implements a segmented write-ahead log for the serving
// stack. Every keyed mutation is appended as a length-prefixed,
// CRC32C-checksummed, versioned record *before* it is applied to the
// in-memory collection ("append-before-apply"), so a crash loses at most
// the writes the configured fsync policy had not yet made durable —
// instead of everything since the last full snapshot.
//
// Layout on disk: a log is a directory of segment files named
// wal-<firstLSN:016x>.seg. Each segment starts with an 8-byte magic
// header and holds a run of consecutive records; when a segment reaches
// Options.SegmentBytes the log rotates to a new file (records never
// straddle segments). Recovery restores the newest snapshot (whose
// header carries the log sequence number it covers, see
// internal/server/snapshot.go) and replays every record with a higher
// LSN. A frame that is cut short or fails its checksum — a torn tail
// from a crash mid-write — truncates the log at that point; a frame
// that passes its checksum but does not decode as the next record (an
// unknown type or version, or an LSN out of sequence) is an error that
// leaves the log untouched, because it holds a write that was
// acknowledged. A successful snapshot advances the durable LSN and
// retires segments that are entirely covered by it.
//
// Records are shard-aware: each carries the routing epoch of the writer,
// so sharded and single-tree servers share one format. Replay applies
// each record by key through the collection, which routes dynamically —
// a log written by an N-shard server restores correctly into an M-shard
// (or single-tree) server.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// RecordType identifies the mutation a record carries.
type RecordType uint8

// Types 1–3 were the retired ID-model records (insert, delete, insert
// batch); a log holding one is refused, never replayed or truncated.
const (
	// RecSet is a keyed upsert (collection SET): the key's new position.
	// Replay replaces the key's previous position.
	RecSet RecordType = 4
	// RecDelKey is a keyed delete (collection DEL): the rect is the
	// position the key held at append time (informational — replay
	// removes by key, since the replaying collection tracks positions).
	RecDelKey RecordType = 5
)

func (t RecordType) String() string {
	switch t {
	case RecSet:
		return "set"
	case RecDelKey:
		return "del-key"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// recordVersion is the payload format version byte. Decoders reject
// versions they do not know — a higher version means a newer writer.
const recordVersion = 1

// MaxKeyBytes bounds the key of one record. AppendSet and AppendDelKey
// reject longer keys, and the bound caps the payload length a scan will
// allocate for, so a corrupt length prefix cannot cost more than one
// record's worth of memory.
const MaxKeyBytes = 64 << 10

// Record is one decoded WAL entry: one key and one rect.
type Record struct {
	LSN   uint64
	Epoch uint32
	Type  RecordType
	Rect  geom.Rect
	Key   string
}

// Frame layout: | payloadLen uint32 | crc32c(payload) uint32 | payload |.
// Payload layout: | version u8 | type u8 | lsn u64 | epoch u32 | rect | key |.
// All fixed-width integers are little-endian; the rect is the IEEE-754
// bit patterns of its four float64s; the key is uvarint-length prefixed
// bytes.
const (
	frameHeaderSize   = 8
	payloadHeaderSize = 1 + 1 + 8 + 4
	rectBytes         = 4 * 8
	// maxPayloadBytes is the largest payload a valid record has: the
	// header, the rect, and a MaxKeyBytes key behind its 3-byte uvarint
	// length.
	maxPayloadBytes = payloadHeaderSize + rectBytes + 3 + MaxKeyBytes
)

// castagnoli is the CRC32C polynomial table; CRC32C has hardware support
// on amd64/arm64, making per-record checksumming nearly free.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes rec as a complete frame (header + payload) onto b.
func appendFrame(b []byte, rec Record) ([]byte, error) {
	if rec.Type != RecSet && rec.Type != RecDelKey {
		return b, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	if len(rec.Key) > MaxKeyBytes {
		return b, fmt.Errorf("wal: key of %d bytes exceeds limit %d", len(rec.Key), MaxKeyBytes)
	}

	frameStart := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadStart := len(b)

	b = append(b, recordVersion, byte(rec.Type))
	b = binary.LittleEndian.AppendUint64(b, rec.LSN)
	b = binary.LittleEndian.AppendUint32(b, rec.Epoch)
	for _, f := range [4]float64{rec.Rect.MinX, rec.Rect.MinY, rec.Rect.MaxX, rec.Rect.MaxY} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Key)))
	b = append(b, rec.Key...)

	payload := b[payloadStart:]
	binary.LittleEndian.PutUint32(b[frameStart:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[frameStart+4:], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// frameSize returns the on-disk size of rec's frame without encoding it.
func frameSize(rec Record) int64 {
	return int64(frameHeaderSize + payloadHeaderSize + rectBytes + uvarintLen(uint64(len(rec.Key))) + len(rec.Key))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodePayload parses a checksum-verified payload into a Record. The
// header fields (LSN, type) are filled in whenever the payload is long
// enough to hold them, so a caller can name the record it refuses.
func decodePayload(p []byte) (Record, error) {
	var rec Record
	if len(p) < payloadHeaderSize {
		return rec, fmt.Errorf("wal: payload too short (%d bytes)", len(p))
	}
	rec.Type = RecordType(p[1])
	rec.LSN = binary.LittleEndian.Uint64(p[2:])
	rec.Epoch = binary.LittleEndian.Uint32(p[10:])
	if p[0] != recordVersion {
		return rec, fmt.Errorf("wal: unsupported record version %d", p[0])
	}
	if rec.Type != RecSet && rec.Type != RecDelKey {
		return rec, fmt.Errorf("wal: unknown record type %d", uint8(rec.Type))
	}
	body := p[payloadHeaderSize:]
	if len(body) < rectBytes {
		return rec, fmt.Errorf("wal: truncated rect")
	}
	rec.Rect = geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(body[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(body[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(body[24:])),
	}
	body = body[rectBytes:]
	klen, n := binary.Uvarint(body)
	if n <= 0 || klen != uint64(len(body)-n) {
		return rec, fmt.Errorf("wal: bad key length")
	}
	rec.Key = string(body[n:])
	return rec, nil
}
