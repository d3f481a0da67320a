package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segMagic is the 8-byte segment file header. A file that does not start
// with it is not (or no longer) a valid segment.
var segMagic = [8]byte{'R', 'L', 'R', 'W', 'A', 'L', 'S', '1'}

const segHeaderSize = int64(len(segMagic))

// segmentName returns the file name of the segment whose first record
// carries firstLSN.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstLSN)
}

// parseSegmentName extracts the first LSN from a segment file name;
// ok is false for files that are not segments.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	lsn, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// listSegments returns the segment files in dir ordered by first LSN.
func listSegments(dir string) ([]segmentRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segmentRef
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentRef{path: filepath.Join(dir, e.Name()), firstLSN: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// scanBufSize is scanSegment's read buffer: a run of frames costs one
// read syscall per buffer, not two per frame.
const scanBufSize = 64 << 10

type segmentRef struct {
	path     string
	firstLSN uint64
}

// scanResult reports how far a segment scan got and why it stopped.
type scanResult struct {
	// records and byType tally the valid records seen.
	records int
	byType  map[RecordType]int
	// firstLSN/lastLSN bound the valid records (0/0 when none).
	firstLSN uint64
	lastLSN  uint64
	// validLen is the byte offset just past the last valid record
	// (segHeaderSize for an empty-but-healthy segment, 0 when even the
	// header is bad).
	validLen int64
	// sizeBytes is the file's physical size.
	sizeBytes int64
	// torn is non-empty when the scan stopped before physical EOF at a
	// torn frame; it describes the first invalid byte run.
	torn string
}

// clean reports whether every physical byte was part of a valid record.
func (r scanResult) clean() bool { return r.torn == "" }

// scanSegment reads one segment sequentially, calling fn (when non-nil)
// for each record that passes its checksum and structural decode, in
// order. Scanning stops without error at the first torn frame: a short
// frame header, an implausible length, a short payload or a checksum
// mismatch. A frame that passes its checksum but fails to decode, or
// whose LSN does not follow its predecessor's (wantFirstLSN, from the
// file name, for the first record), is an error instead: its bytes are
// exactly what some writer meant to write — a record type or version
// this build does not know, or a misplaced segment — and truncating it
// would drop an acknowledged write.
//
// The caller decides what a non-clean result means: Open truncates the
// tail, Inspect just reports it.
func scanSegment(path string, wantFirstLSN uint64, fn func(Record) error) (scanResult, error) {
	res := scanResult{byType: make(map[RecordType]int)}
	f, err := os.Open(path)
	if err != nil {
		return res, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, fmt.Errorf("wal: stat segment: %w", err)
	}
	res.sizeBytes = fi.Size()
	// Offsets are counted, never asked of the file, so buffering leaves
	// validLen — the truncation point Open acts on — exact.
	br := bufio.NewReaderSize(f, scanBufSize)

	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		res.torn = "short segment header"
		return res, nil
	}
	if hdr != segMagic {
		res.torn = "bad segment magic"
		return res, nil
	}
	res.validLen = segHeaderSize

	nextLSN := wantFirstLSN
	var frameHdr [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frameHdr[:]); err != nil {
			if err != io.EOF {
				res.torn = "short frame header"
			}
			return res, nil
		}
		payloadLen := binary.LittleEndian.Uint32(frameHdr[0:])
		wantCRC := binary.LittleEndian.Uint32(frameHdr[4:])
		if payloadLen < payloadHeaderSize || payloadLen > maxPayloadBytes {
			res.torn = fmt.Sprintf("implausible payload length %d", payloadLen)
			return res, nil
		}
		if cap(payload) < int(payloadLen) {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.torn = "short payload"
			return res, nil
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			res.torn = fmt.Sprintf("checksum mismatch at offset %d", res.validLen)
			return res, nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return res, fmt.Errorf("wal: %s offset %d: checksum-valid record LSN %d type byte %d does not decode (%v); refusing to truncate it",
				path, res.validLen, rec.LSN, uint8(rec.Type), err)
		}
		if rec.LSN != nextLSN {
			return res, fmt.Errorf("wal: %s offset %d: checksum-valid record LSN %d type byte %d where LSN %d was expected; refusing to truncate it",
				path, res.validLen, rec.LSN, uint8(rec.Type), nextLSN)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		if res.records == 0 {
			res.firstLSN = rec.LSN
		}
		res.lastLSN = rec.LSN
		res.records++
		res.byType[rec.Type]++
		res.validLen += frameHeaderSize + int64(payloadLen)
		nextLSN = rec.LSN + 1
	}
}

// syncDir fsyncs a directory so that entry creations, renames and
// removals inside it survive a crash. Required after creating or
// retiring segment files and after renaming a snapshot into place.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
