package collection

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Cursor tokens. A page's Cursor field is an opaque string the client
// feeds back to resume iteration; "" means "from the beginning" on the
// way in and "no more results" on the way out.
//
// Stability semantics: a cursor is a strict lower bound in the query's
// total order — (key) for range queries, (distance, key) for Nearby —
// not a saved position in a snapshot. Each page re-evaluates the query
// against the live collection and returns what now sorts strictly after
// the bound. Deleting the very object the cursor points at therefore
// invalidates nothing, objects that moved behind the bound are skipped
// (they were already "passed"), and objects that churned into the
// not-yet-visited region appear — exactly the semantics of the map
// oracle, which the differential suite pins byte-for-byte, resumptions
// mid-churn included.
//
// Wire format ("k." / "d." discriminate the two orders so a Nearby
// token fed to Within fails loudly instead of silently restarting):
//
//	range:  k.<base64url(key)>
//	nearby: d.<16-hex float64 bits of distSq>.<base64url(key)>

const (
	rangeCursorPrefix  = "k."
	nearbyCursorPrefix = "d."
)

// cursor is a parsed token. The zero value iterates from the beginning.
type cursor struct {
	started bool
	key     string
	dist    float64 // nearby order only
	nearby  bool
}

// encodeRangeCursor returns the token resuming a range query strictly
// after key.
func encodeRangeCursor(key string) string {
	var sb strings.Builder
	sb.Grow(len(rangeCursorPrefix) + base64.RawURLEncoding.EncodedLen(len(key)))
	sb.WriteString(rangeCursorPrefix)
	writeKey(&sb, key)
	return sb.String()
}

// encodeNearbyCursor returns the token resuming a Nearby query strictly
// after (distSq, key).
func encodeNearbyCursor(distSq float64, key string) string {
	var bits [8]byte
	var digits [16]byte
	binary.BigEndian.PutUint64(bits[:], math.Float64bits(distSq))
	hex.Encode(digits[:], bits[:])
	var sb strings.Builder
	sb.Grow(len(nearbyCursorPrefix) + len(digits) + 1 + base64.RawURLEncoding.EncodedLen(len(key)))
	sb.WriteString(nearbyCursorPrefix)
	sb.Write(digits[:])
	sb.WriteByte('.')
	writeKey(&sb, key)
	return sb.String()
}

// writeKey writes base64url(key), unpadded, through a stack buffer, so
// a token costs the one allocation of its string. Chunks are a multiple
// of 3 bytes, where base64 has no padding, so they concatenate to the
// encoding of the whole key.
func writeKey(sb *strings.Builder, key string) {
	var src [48]byte
	var dst [64]byte
	for len(key) > 0 {
		n := copy(src[:], key)
		key = key[n:]
		m := base64.RawURLEncoding.EncodedLen(n)
		base64.RawURLEncoding.Encode(dst[:m], src[:n])
		sb.Write(dst[:m])
	}
}

// encode returns the token of a parsed cursor.
func (c cursor) encode() string {
	switch {
	case !c.started:
		return ""
	case c.nearby:
		return encodeNearbyCursor(c.dist, c.key)
	default:
		return encodeRangeCursor(c.key)
	}
}

// parseCursor decodes a token of either kind; nearby reports which
// order the token belongs to so the query can reject a mismatch. Only
// the canonical form the encoders write is accepted: base64 and hex
// both have several spellings of one value (upper-case digits, unused
// trailing bits, ignored line breaks), and a token that does not
// re-encode to itself is rejected rather than silently read as another.
func parseCursor(tok string) (cursor, error) {
	if tok == "" {
		return cursor{}, nil
	}
	var c cursor
	switch {
	case strings.HasPrefix(tok, rangeCursorPrefix):
		key, err := base64.RawURLEncoding.DecodeString(tok[len(rangeCursorPrefix):])
		if err != nil {
			return cursor{}, fmt.Errorf("collection: bad cursor %q: %w", tok, err)
		}
		c = cursor{started: true, key: string(key)}
	case strings.HasPrefix(tok, nearbyCursorPrefix):
		rest := tok[len(nearbyCursorPrefix):]
		hexBits, b64, ok := strings.Cut(rest, ".")
		if !ok || len(hexBits) != 16 {
			return cursor{}, fmt.Errorf("collection: bad nearby cursor %q", tok)
		}
		bits, err := strconv.ParseUint(hexBits, 16, 64)
		if err != nil {
			return cursor{}, fmt.Errorf("collection: bad nearby cursor %q: %w", tok, err)
		}
		d := math.Float64frombits(bits)
		if math.IsNaN(d) || d < 0 {
			return cursor{}, fmt.Errorf("collection: bad nearby cursor %q: distance out of range", tok)
		}
		key, err := base64.RawURLEncoding.DecodeString(b64)
		if err != nil {
			return cursor{}, fmt.Errorf("collection: bad cursor %q: %w", tok, err)
		}
		c = cursor{started: true, key: string(key), dist: d, nearby: true}
	default:
		return cursor{}, fmt.Errorf("collection: unrecognized cursor %q", tok)
	}
	if c.encode() != tok {
		return cursor{}, fmt.Errorf("collection: non-canonical cursor %q", tok)
	}
	return c, nil
}

// after reports whether (distSq, key) sorts strictly after the cursor
// position in the nearby order.
func (c cursor) afterNearby(distSq float64, key string) bool {
	if !c.started {
		return true
	}
	if distSq != c.dist {
		return distSq > c.dist
	}
	return key > c.key
}

// afterRange reports whether key sorts strictly after the cursor in the
// range order.
func (c cursor) afterRange(key string) bool {
	return !c.started || key > c.key
}
