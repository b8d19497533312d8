package protocol

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// A Report must not grow past 40 bytes: collectors pool hundreds of thousands
// of them, and the bit count lives inside BitVec's one slice — as on the wire
// — precisely so that the index-only families do not pay for a field they
// never use.
func TestReportStays40Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Report{}) != 40 {
		t.Fatalf("Report is %d bytes, want 40", unsafe.Sizeof(Report{}))
	}
}

func TestBitVec(t *testing.T) {
	var absent BitVec
	if absent.Present() || absent.Len() != 0 || len(absent.Wire()) != 0 || len(absent.Packed()) != 0 {
		t.Fatalf("zero BitVec is not the absent vector: %+v", absent)
	}
	for _, n := range []int{0, 1, 8, 19, 300} {
		v := NewBitVec(n)
		if !v.Present() || v.Len() != n || len(v.Packed()) != (n+7)/8 {
			t.Fatalf("NewBitVec(%d): present %v, len %d, %d packed bytes", n, v.Present(), v.Len(), len(v.Packed()))
		}
		for i := 0; i < n; i += 3 {
			v.Set(i)
		}
		for i := 0; i < n; i++ {
			if v.Get(i) != (i%3 == 0) {
				t.Fatalf("n=%d: bit %d = %v", n, i, v.Get(i))
			}
		}
		// The wire form parses back to the same vector, in place.
		field := append(append([]byte(nil), v.Wire()...), 0xAA) // one byte of whatever follows
		got, used, err := ParseBitVec(field, n)
		if err != nil || used != len(v.Wire()) || !reflect.DeepEqual(got, v) {
			t.Fatalf("n=%d: parse = %v, %d bytes, %v", n, got, used, err)
		}
		if n > 0 && &got.Wire()[0] != &field[0] {
			t.Fatalf("n=%d: ParseBitVec copied the field", n)
		}
	}
	for name, tc := range map[string]struct {
		field []byte
		want  string
	}{
		"empty":             {nil, "varint"},
		"count over cap":    {[]byte{65}, "limit"},
		"missing bytes":     {[]byte{19, 0xFF, 0xFF}, "remain"},
		"nonzero padding":   {[]byte{19, 0, 0, 0x08}, "padding"},
		"non-minimal count": {[]byte{0x83, 0x00, 0x05}, "varint"},
	} {
		if _, _, err := ParseBitVec(tc.field, 64); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set past Len did not panic; it would have set a spare bit")
		}
	}()
	NewBitVec(19).Set(19)
}
