package wal

// Read-only log inspection, the backend of `rlr-inspect wal`. Unlike
// Open, Inspect never truncates or deletes anything — it reports what a
// recovery *would* do.

// SegmentInfo describes one segment as found on disk.
type SegmentInfo struct {
	Path      string
	FirstLSN  uint64 // from the file name
	LastLSN   uint64 // last valid record (0 when none)
	Records   int
	Sets      int // keyed upserts (RecSet)
	DelKeys   int // keyed deletes (RecDelKey)
	SizeBytes int64
	ValidLen  int64 // bytes a recovery would keep
	// Torn is non-empty when the segment holds invalid bytes; recovery
	// would truncate here and discard all later segments.
	Torn string
	// Unreachable marks segments a recovery would drop entirely because
	// an earlier segment is torn or an LSN hole precedes them.
	Unreachable bool
}

// Inspect scans every segment in dir without modifying anything and,
// when fn is non-nil, streams each valid reachable record to it in LSN
// order (the same records a recovery would replay from LSN 0). Like
// Open, it fails on a checksum-valid record it cannot decode.
func Inspect(dir string, fn func(Record) error) ([]SegmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]SegmentInfo, 0, len(segs))
	var lastLSN uint64
	dead := false
	for i, seg := range segs {
		info := SegmentInfo{Path: seg.path, FirstLSN: seg.firstLSN}
		if dead || (i > 0 && seg.firstLSN != lastLSN+1) {
			dead = true
			info.Unreachable = true
			// Still scan for reporting, but never feed fn; recovery
			// drops this segment unread, so a record it would refuse
			// is reported, not returned.
			res, err := scanSegment(seg.path, seg.firstLSN, nil)
			fillInfo(&info, res)
			if err != nil {
				info.Torn = err.Error()
			}
			infos = append(infos, info)
			continue
		}
		res, err := scanSegment(seg.path, seg.firstLSN, fn)
		if err != nil {
			return infos, err
		}
		fillInfo(&info, res)
		infos = append(infos, info)
		if res.records > 0 {
			lastLSN = res.lastLSN
		} else if i == 0 {
			lastLSN = seg.firstLSN - 1
		}
		if !res.clean() {
			dead = true
		}
	}
	return infos, nil
}

func fillInfo(info *SegmentInfo, res scanResult) {
	info.LastLSN = res.lastLSN
	info.Records = res.records
	info.Sets = res.byType[RecSet]
	info.DelKeys = res.byType[RecDelKey]
	info.SizeBytes = res.sizeBytes
	info.ValidLen = res.validLen
	info.Torn = res.torn
}
