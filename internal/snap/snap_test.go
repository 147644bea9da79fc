package snap

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Bool(true)
	w.Bool(false)
	w.U8(0xAB)
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(-12345)
	w.Int(-1)
	w.F64(3.14159)
	w.F64(math.Inf(-1))
	w.String("hello")
	w.String("")
	w.Len(3)
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if !r.Bool() || r.Bool() {
		t.Fatal("bools diverged")
	}
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -12345 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Len(10, 1); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	if got := r.Raw(3); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Raw = %v", got)
	}
	r.Done()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReader([]byte{0x02}) // invalid boolean
	if r.Bool() {
		t.Fatal("corrupt bool decoded true")
	}
	if r.Err() == nil {
		t.Fatal("no error for bad boolean")
	}
	// Every subsequent read returns zero without panicking.
	if r.U64() != 0 || r.I64() != 0 || r.F64() != 0 || r.String() != "" {
		t.Fatal("reads after error returned nonzero")
	}
}

func TestLenBounds(t *testing.T) {
	w := NewWriter()
	w.Len(1 << 40) // a lying length prefix
	r := NewReader(w.Bytes())
	if got := r.Len(math.MaxInt, 8); got != 0 || r.Err() == nil {
		t.Fatalf("oversized length accepted: %d, err %v", got, r.Err())
	}

	w = NewWriter()
	w.Len(5)
	r = NewReader(w.Bytes())
	if got := r.Len(4, 1); got != 0 || r.Err() == nil {
		t.Fatalf("length over structural max accepted: %d", got)
	}
	if !strings.Contains(r.Err().Error(), "length") {
		t.Fatalf("unexpected error %v", r.Err())
	}
}

func TestTrailing(t *testing.T) {
	w := NewWriter()
	w.U64(7)
	w.U8(0)
	r := NewReader(w.Bytes())
	r.U64()
	r.Done()
	if r.Err() == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestTruncated(t *testing.T) {
	w := NewWriter()
	w.String("abcdef")
	data := w.Bytes()
	r := NewReader(data[:3])
	if got := r.String(); got != "" || r.Err() == nil {
		t.Fatalf("truncated string decoded %q", got)
	}
}
