// Package wal implements a segmented write-ahead log for the serving
// stack. Every index mutation is appended as a length-prefixed,
// CRC32C-checksummed, versioned record *before* it is applied to the
// in-memory tree ("append-before-apply"), so a crash loses at most the
// writes the configured fsync policy had not yet made durable — instead
// of everything since the last full snapshot.
//
// Layout on disk: a log is a directory of segment files named
// wal-<firstLSN:016x>.seg. Each segment starts with an 8-byte magic
// header and holds a run of consecutive records; when a segment reaches
// Options.SegmentBytes the log rotates to a new file (records never
// straddle segments). Recovery restores the newest snapshot (whose
// header carries the log sequence number it covers, see
// internal/server/snapshot.go) and replays every record with a higher LSN; the first record that
// fails its checksum — a torn tail from a crash mid-write, or later
// corruption — truncates the log at that point. A successful snapshot
// advances the durable LSN and retires segments that are entirely
// covered by it.
//
// Records are shard-aware: each carries the routing epoch of the writer,
// so sharded and single-tree servers share one format. Replay applies
// geometry + payload through the serving Index interface, which routes
// dynamically — a log written by an N-shard server restores correctly
// into an M-shard (or single-tree) server.
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

const (
	// RecInsert is a single-object insert: one rect, one ID.
	RecInsert RecordType = 1
	// RecDelete is a single-object delete: one rect, one ID.
	RecDelete RecordType = 2
	// RecInsertBatch is a multi-object insert applied as one batch.
	RecInsertBatch RecordType = 3
	// RecSet is a keyed upsert (collection SET): one rect, one key. On
	// replay it replaces the key's previous position instead of adding a
	// second object, which is what distinguishes it from RecInsert.
	RecSet RecordType = 4
	// RecDelKey is a keyed delete (collection DEL): the rect is the
	// position the key held at append time (informational — replay
	// removes by key, since the replaying collection tracks positions).
	RecDelKey RecordType = 5
)

func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecInsertBatch:
		return "insert-batch"
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

// Record is one decoded WAL entry. Insert and Delete carry exactly one
// (rect, ID) pair; InsertBatch carries len(Rects) == len(IDs) >= 0 pairs.
type Record struct {
	LSN   uint64
	Epoch uint32
	Type  RecordType
	Rects []geom.Rect
	IDs   []string
}

// Items returns the number of objects the record mutates.
func (r Record) Items() int { return len(r.Rects) }

// Frame layout: | payloadLen uint32 | crc32c(payload) uint32 | payload |.
// Payload layout: | version u8 | type u8 | lsn u64 | epoch u32 | body |.
// Body: insert/delete = rect + id; batch = uvarint count + count×(rect+id).
// All fixed-width integers are little-endian; rect coordinates are the
// IEEE-754 bit patterns of the four float64s; strings are uvarint-length
// prefixed bytes.
const (
	frameHeaderSize   = 8
	payloadHeaderSize = 1 + 1 + 8 + 4
	// maxPayloadBytes bounds a decoded payload length so corrupted
	// length prefixes cannot trigger absurd allocations. It comfortably
	// holds the server's largest insert batch (body ≈ 41 bytes/item at
	// 16 MiB request cap).
	maxPayloadBytes = 256 << 20
)

// castagnoli is the CRC32C polynomial table; CRC32C has hardware support
// on amd64/arm64, making per-record checksumming nearly free.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRect appends r's four coordinates as little-endian float64 bits.
func appendRect(b []byte, r geom.Rect) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MinX))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MinY))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MaxX))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MaxY))
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFrame encodes rec as a complete frame (header + payload) onto b.
func appendFrame(b []byte, rec Record) ([]byte, error) {
	if len(rec.Rects) != len(rec.IDs) {
		return b, fmt.Errorf("wal: record has %d rects but %d ids", len(rec.Rects), len(rec.IDs))
	}
	switch rec.Type {
	case RecInsert, RecDelete, RecSet, RecDelKey:
		if len(rec.Rects) != 1 {
			return b, fmt.Errorf("wal: %s record needs exactly 1 item, got %d", rec.Type, len(rec.Rects))
		}
	case RecInsertBatch:
	default:
		return b, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}

	frameStart := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadStart := len(b)

	b = append(b, recordVersion, byte(rec.Type))
	b = binary.LittleEndian.AppendUint64(b, rec.LSN)
	b = binary.LittleEndian.AppendUint32(b, rec.Epoch)
	if rec.Type == RecInsertBatch {
		b = binary.AppendUvarint(b, uint64(len(rec.Rects)))
	}
	for i, r := range rec.Rects {
		b = appendRect(b, r)
		b = appendString(b, rec.IDs[i])
	}

	payload := b[payloadStart:]
	if len(payload) > maxPayloadBytes {
		return b[:frameStart], fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(payload), maxPayloadBytes)
	}
	binary.LittleEndian.PutUint32(b[frameStart:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[frameStart+4:], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// frameSize returns the on-disk size of rec's frame without encoding it.
func frameSize(rec Record) int64 {
	n := int64(frameHeaderSize + payloadHeaderSize)
	if rec.Type == RecInsertBatch {
		n += int64(uvarintLen(uint64(len(rec.Rects))))
	}
	for _, id := range rec.IDs {
		n += 32 + int64(uvarintLen(uint64(len(id)))) + int64(len(id))
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodePayload parses a checksum-verified payload into a Record.
func decodePayload(p []byte) (Record, error) {
	var rec Record
	if len(p) < payloadHeaderSize {
		return rec, fmt.Errorf("wal: payload too short (%d bytes)", len(p))
	}
	if p[0] != recordVersion {
		return rec, fmt.Errorf("wal: unsupported record version %d", p[0])
	}
	rec.Type = RecordType(p[1])
	rec.LSN = binary.LittleEndian.Uint64(p[2:])
	rec.Epoch = binary.LittleEndian.Uint32(p[10:])
	body := p[payloadHeaderSize:]

	count := 1
	switch rec.Type {
	case RecInsert, RecDelete, RecSet, RecDelKey:
	case RecInsertBatch:
		c, n := binary.Uvarint(body)
		if n <= 0 {
			return rec, fmt.Errorf("wal: bad batch count varint")
		}
		// Each item is at least a rect (32 bytes) + a 1-byte id length,
		// so a count beyond len(body)/33 is provably corrupt — and the
		// bound keeps a crafted-but-CRC-valid record from forcing a huge
		// Rects/IDs pre-allocation before per-item checks run.
		if c > uint64(len(body))/33 {
			return rec, fmt.Errorf("wal: batch count %d exceeds payload capacity", c)
		}
		count = int(c)
		body = body[n:]
	default:
		return rec, fmt.Errorf("wal: unknown record type %d", uint8(rec.Type))
	}

	rec.Rects = make([]geom.Rect, count)
	rec.IDs = make([]string, count)
	for i := 0; i < count; i++ {
		if len(body) < 32 {
			return rec, fmt.Errorf("wal: item %d: truncated rect", i)
		}
		rec.Rects[i] = geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(body[0:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(body[16:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(body[24:])),
		}
		body = body[32:]
		slen, n := binary.Uvarint(body)
		if n <= 0 || slen > uint64(len(body)-n) {
			return rec, fmt.Errorf("wal: item %d: bad id length", i)
		}
		rec.IDs[i] = string(body[n : n+int(slen)])
		body = body[n+int(slen):]
	}
	if len(body) != 0 {
		return rec, fmt.Errorf("wal: %d trailing payload bytes", len(body))
	}
	return rec, nil
}
