// Package vclock implements fixed-width vector clocks, the logical-time
// substrate of the SSS concurrency control (ICDCS'19).
//
// A vector clock has one entry per node in the cluster. SSS uses vector
// clocks in three roles: the per-node NodeVC, the per-transaction visibility
// bound T.VC, and the commitVC attached to every committed version. All
// comparisons follow the classic entry-wise lattice: v1 <= v2 iff every
// entry of v1 is <= the corresponding entry of v2.
//
// Invariants (see docs/CONSISTENCY.md §2): VC is a mutable slice, but
// clocks that have been published — version commit clocks, clocks loaded
// from commitlog's atomic snapshot, ExWriter clocks travelling in wire
// messages — are immutable by convention: holders must Clone before
// mutating. Widths never mix within a cluster; width mismatches panic
// because they are programming errors, never runtime conditions.
package vclock

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// VC is a fixed-width vector clock. The zero-length VC is valid and compares
// as the bottom element against other zero-length VCs only; callers must not
// mix widths (Compare and friends panic on width mismatch, which always
// indicates a programming error, never a runtime condition).
type VC []uint64

// New returns a zeroed vector clock of width n.
func New(n int) VC {
	return make(VC, n)
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	if v == nil {
		return nil
	}
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// CopyFrom overwrites v in place with src. Widths must match.
func (v VC) CopyFrom(src VC) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("vclock: width mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// MaxInto sets v to the entry-wise maximum of v and other, in place.
func (v VC) MaxInto(other VC) {
	if len(v) != len(other) {
		panic(fmt.Sprintf("vclock: width mismatch %d != %d", len(v), len(other)))
	}
	for i, x := range other {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Max returns a fresh vector clock equal to the entry-wise maximum of a and b.
func Max(a, b VC) VC {
	out := a.Clone()
	out.MaxInto(b)
	return out
}

// LessEq reports whether v <= other entry-wise.
func (v VC) LessEq(other VC) bool {
	if len(v) != len(other) {
		panic(fmt.Sprintf("vclock: width mismatch %d != %d", len(v), len(other)))
	}
	for i, x := range v {
		if x > other[i] {
			return false
		}
	}
	return true
}

// Less reports whether v <= other and v != other (strict lattice order).
func (v VC) Less(other VC) bool {
	return v.LessEq(other) && !v.Equal(other)
}

// Equal reports whether v and other are identical.
func (v VC) Equal(other VC) bool {
	if len(v) != len(other) {
		return false
	}
	for i, x := range v {
		if x != other[i] {
			return false
		}
	}
	return true
}

// Ordering is the result of comparing two vector clocks.
type Ordering int

// Possible orderings of a pair of vector clocks in the lattice.
const (
	OrderingEqual Ordering = iota + 1
	OrderingBefore
	OrderingAfter
	OrderingConcurrent
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderingEqual:
		return "equal"
	case OrderingBefore:
		return "before"
	case OrderingAfter:
		return "after"
	case OrderingConcurrent:
		return "concurrent"
	default:
		return "invalid"
	}
}

// Compare classifies the lattice relation between v and other.
func (v VC) Compare(other VC) Ordering {
	if len(v) != len(other) {
		panic(fmt.Sprintf("vclock: width mismatch %d != %d", len(v), len(other)))
	}
	le, ge := true, true
	for i, x := range v {
		if x < other[i] {
			ge = false
		}
		if x > other[i] {
			le = false
		}
	}
	switch {
	case le && ge:
		return OrderingEqual
	case le:
		return OrderingBefore
	case ge:
		return OrderingAfter
	default:
		return OrderingConcurrent
	}
}

// IsZero reports whether every entry of v is zero.
func (v VC) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// String renders v as "[a b c]".
func (v VC) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(x, 10))
	}
	sb.WriteByte(']')
	return sb.String()
}

// AppendBinary appends a compact binary encoding of v to buf and returns the
// extended slice. The encoding is a uvarint width followed by one uvarint per
// entry; it is the representation used by the wire codec.
func (v VC) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf
}

// DecodeFrom parses a vector clock encoded by AppendBinary from buf and
// returns the clock together with the number of bytes consumed.
func DecodeFrom(buf []byte) (VC, int, error) {
	width, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("vclock: truncated width")
	}
	if width > 1<<20 {
		return nil, 0, fmt.Errorf("vclock: implausible width %d", width)
	}
	total := n
	out := make(VC, width)
	for i := range out {
		x, m := binary.Uvarint(buf[total:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("vclock: truncated entry %d", i)
		}
		out[i] = x
		total += m
	}
	return out, total, nil
}
