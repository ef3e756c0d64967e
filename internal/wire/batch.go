package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// batchTag opens a batch frame. Message types start at 1, so a leading zero
// byte unambiguously distinguishes a batch frame from a single encoded
// envelope sharing the same transport framing.
const batchTag byte = 0x00

// maxBatchCount bounds the declared envelope count of a batch frame;
// anything larger indicates corruption.
const maxBatchCount = 1 << 20

// bufPool recycles codec buffers so that steady-state encode and frame
// decode allocate nothing. Buffers are pooled via pointer (avoiding the
// slice-header allocation on Put) and grown by the codec as needed.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a pooled, zero-length buffer. Release it with PutBuf once
// the encoded bytes have been written out.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped so one huge frame doesn't pin memory for the life of the pool.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ReadFrame reads one frame, a uvarint length and then that many bytes,
// from r into *bp, growing the buffer as needed. A length above limit fails
// before anything is allocated for it. A zero-length frame leaves *bp
// empty: the peer links send one as a liveness ping.
func ReadFrame(r *bufio.Reader, bp *[]byte, limit uint64) error {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	if size > limit {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", size, limit)
	}
	if uint64(cap(*bp)) < size {
		*bp = make([]byte, size)
	} else {
		*bp = (*bp)[:size]
	}
	_, err = io.ReadFull(r, *bp)
	return err
}

// EncodeBatch appends a batch frame packing envs to buf and returns the
// extended slice. The layout is:
//
//	0x00 count(uvarint) { len(uvarint) envelope... }*
//
// A batch of one is valid; an empty batch is an error (send nothing
// instead). Encode each envelope with EncodeEnvelope to ship it unbatched.
func EncodeBatch(buf []byte, envs []Envelope) ([]byte, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("wire: empty batch")
	}
	buf = append(buf, batchTag)
	buf = binary.AppendUvarint(buf, uint64(len(envs)))
	for i := range envs {
		// Reserve a length prefix by encoding into a scratch region: encode
		// after the current end, then insert the uvarint length before it.
		// To keep this single-pass and allocation-free we encode the
		// envelope onto the end, measure it, and shift only when the length
		// prefix needs more than one byte.
		start := len(buf)
		var err error
		buf, err = EncodeEnvelope(buf, envs[i])
		if err != nil {
			return nil, err
		}
		n := len(buf) - start
		var hdr [binary.MaxVarintLen64]byte
		h := binary.PutUvarint(hdr[:], uint64(n))
		buf = append(buf, hdr[:h]...)           // grow by header size
		copy(buf[start+h:], buf[start:start+n]) // shift body right
		copy(buf[start:start+h], hdr[:h])       // write header in place
	}
	return buf, nil
}

// IsBatch reports whether frame holds a batch frame (as opposed to a single
// encoded envelope).
func IsBatch(frame []byte) bool {
	return len(frame) > 0 && frame[0] == batchTag
}

// DecodeBatch parses a batch frame and invokes fn for each envelope, in
// order. It returns the number of envelopes decoded; decoding stops at the
// first error (including one returned by fn). Decoded envelopes do not
// retain frame, so the buffer may be recycled immediately after.
func DecodeBatch(frame []byte, fn func(Envelope) error) (int, error) {
	if !IsBatch(frame) {
		return 0, fmt.Errorf("wire: not a batch frame")
	}
	off := 1
	count, n := binary.Uvarint(frame[off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated batch count")
	}
	if count > maxBatchCount {
		return 0, fmt.Errorf("wire: implausible batch count %d", count)
	}
	off += n
	for i := 0; i < int(count); i++ {
		size, n := binary.Uvarint(frame[off:])
		if n <= 0 {
			return i, fmt.Errorf("wire: truncated envelope length at %d/%d", i, count)
		}
		off += n
		// Guard in uint64 space: a corrupt size near 2^64 would overflow
		// int and slip past a signed end-of-frame comparison.
		if size > uint64(len(frame)-off) {
			return i, fmt.Errorf("wire: truncated envelope body at %d/%d", i, count)
		}
		end := off + int(size)
		env, err := DecodeEnvelope(frame[off:end])
		if err != nil {
			return i, fmt.Errorf("wire: batch envelope %d/%d: %w", i, count, err)
		}
		off = end
		if err := fn(env); err != nil {
			return i + 1, err
		}
	}
	if off != len(frame) {
		return int(count), fmt.Errorf("wire: %d trailing bytes after batch", len(frame)-off)
	}
	return int(count), nil
}
