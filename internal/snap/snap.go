// Package snap is the binary codec beneath the simulator's checkpoint
// format: a compact append-only Writer and a bounds-checked, sticky-error
// Reader that every stateful layer (sched, core, cache, cpu, workload,
// sim) uses to serialize its mutable state deterministically.
//
// Encoding rules: booleans are one byte; unsigned integers, counters and
// times are uvarint/varint (snapshots are dominated by large slices of
// small values, so varints roughly halve them); floats are IEEE-754 bits;
// strings and byte slices are length-prefixed. There is no reflection and
// no per-field tagging — a snapshot is a fixed field sequence versioned
// as a whole by the composing layer's magic string, and any structural
// change bumps that version.
//
// The Reader is designed for hostile inputs: every read is bounds-checked
// against the remaining input, errors are sticky (after the first failure
// every getter returns zero and Err reports the cause), and collection
// lengths are validated against the bytes that remain, so a corrupt
// length prefix can never balloon an allocation past the input size.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer serializes values into a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer, keeping its buffer for reuse. A writer
// reused this way encodes without allocating once its buffer has grown
// to the encodings' size.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bool writes a one-byte boolean.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U64 writes an unsigned integer as a uvarint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 writes a signed integer as a zigzag varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int writes an int as a zigzag varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Len writes a collection length.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Reader decodes a Writer's buffer with sticky error handling: after the
// first failure every getter returns the zero value and Err reports what
// went wrong, so decode sequences need a single error check at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a decode error (also usable by callers for semantic
// validation failures, so they surface through the same sticky channel).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Done errors unless the input is fully consumed.
func (r *Reader) Done() {
	if r.err == nil && r.off != len(r.data) {
		r.Failf("%d trailing bytes", len(r.data)-r.off)
	}
}

// Raw reads n bytes verbatim (a view into the input, not a copy).
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Failf("truncated: need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Bool reads a one-byte boolean (any nonzero byte beyond 1 is corruption).
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.Failf("bad boolean byte %#x", b)
		return false
	}
	return b == 1
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.Failf("truncated")
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// U64 reads a uvarint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// I64 reads a zigzag varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads an int-sized zigzag varint.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.Failf("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.Failf("truncated float")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// String reads a length-prefixed string; the length is validated against
// the remaining input.
func (r *Reader) String() string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.Failf("string length %d exceeds %d remaining bytes", n, r.Remaining())
		return ""
	}
	return string(r.Raw(int(n)))
}

// Len reads a collection length and validates it: at most max elements
// (pass a structural bound, or math.MaxInt for "any"), and — since every
// element costs at least minElemBytes on the wire — small enough to fit
// in the remaining input. This makes allocation proportional to the
// input, never to a corrupt length prefix.
func (r *Reader) Len(max, minElemBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(max) || n > uint64(r.Remaining()/minElemBytes) {
		r.Failf("collection length %d exceeds bound %d (or %d remaining bytes)",
			n, max, r.Remaining())
		return 0
	}
	return int(n)
}
