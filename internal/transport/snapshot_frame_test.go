package transport

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		State: []float64{0, 1.5, 2.25, math.MaxFloat64, 1e-300},
		Count: 12345,
		Epoch: 42,
		Info:  Info{Mechanism: "strategy", Domain: 5, Epsilon: 1.25, Digest: "00f1e2d3c4b5a697"},
	}
}

// multiChunkSnapshot spans several of the codec's fixed-size chunks with a
// ragged tail, so the chunk-boundary paths run.
func multiChunkSnapshot() Snapshot {
	s := sampleSnapshot()
	s.State = make([]float64, 2*snapshotChunkFloats+3)
	for i := range s.State {
		s.State[i] = float64(i) + 0.5
	}
	return s
}

func TestSnapshotFrameV2RoundTrip(t *testing.T) {
	for name, snap := range map[string]Snapshot{
		"full":       sampleSnapshot(),
		"bareInfo":   {State: []float64{7}, Count: 7},
		"empty":      {},
		"multiChunk": multiChunkSnapshot(),
	} {
		var buf bytes.Buffer
		if err := EncodeSnapshotFrame(&buf, snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeSnapshotFrame(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Count != snap.Count || got.Epoch != snap.Epoch || got.Info != snap.Info {
			t.Fatalf("%s: metadata changed: %+v != %+v", name, got, snap)
		}
		if len(got.State) != len(snap.State) {
			t.Fatalf("%s: state width %d != %d", name, len(got.State), len(snap.State))
		}
		for i := range snap.State {
			if got.State[i] != snap.State[i] {
				t.Fatalf("%s: state[%d] %v != %v", name, i, got.State[i], snap.State[i])
			}
		}
	}
}

// A version-1 snapshot frame — what every pre-v2 ldpserve emits — must keep
// decoding through the new reader, with the metadata it never carried coming
// back zero.
func TestSnapshotFrameV1StillDecodes(t *testing.T) {
	state := []float64{3, 0, 9.5}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, state, 12); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 12 || got.Epoch != 0 || got.Info != (Info{}) || !reflect.DeepEqual(got.State, state) {
		t.Fatalf("v1 decode: %+v", got)
	}
}

// goldenFrame regenerates testdata/<name> from got when UPDATE_GOLDEN=1 and
// returns the checked-in bytes. The goldens pin decode compatibility: frame
// bytes written by a past version of this library must keep loading to the
// same values, whatever the current writer emits.
func goldenFrame(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	return want
}

// The golden files pin v1→v2 wire compatibility in CI: the checked-in v1
// frame bytes (written by the version-1 encoder, byte-identical since PR 3)
// and v2 frame bytes must both load to exactly the expected snapshot.
func TestSnapshotFrameGoldenCompatibility(t *testing.T) {
	v1State := []float64{1, 0, 2, 0, 3, 0, 4, 0.5}
	var v1 bytes.Buffer
	if err := EncodeSnapshot(&v1, v1State, 11); err != nil {
		t.Fatal(err)
	}
	v1Bytes := goldenFrame(t, "snapshot_v1.golden", v1.Bytes())
	got, err := DecodeSnapshotFrame(bytes.NewReader(v1Bytes))
	if err != nil {
		t.Fatalf("golden v1 frame no longer decodes: %v", err)
	}
	if got.Count != 11 || got.Epoch != 0 || got.Info != (Info{}) || !reflect.DeepEqual(got.State, v1State) {
		t.Fatalf("golden v1 frame decoded to %+v", got)
	}

	want := sampleSnapshot()
	var v2 bytes.Buffer
	if err := EncodeSnapshotFrame(&v2, want); err != nil {
		t.Fatal(err)
	}
	v2Bytes := goldenFrame(t, "snapshot_v2.golden", v2.Bytes())
	got, err = DecodeSnapshotFrame(bytes.NewReader(v2Bytes))
	if err != nil {
		t.Fatalf("golden v2 frame no longer decodes: %v", err)
	}
	if got.Count != want.Count || got.Epoch != want.Epoch || got.Info != want.Info || !reflect.DeepEqual(got.State, want.State) {
		t.Fatalf("golden v2 frame decoded to %+v", got)
	}
}

func TestDecodeSnapshotFrameRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshotFrame(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	nanEps := append([]byte(nil), base...)
	// epsilon sits at payload offset 8+8+4 = 20.
	copy(nanEps[headerLen+20:], []byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1})
	// A well-framed v2 payload too short for its fixed metadata exercises the
	// field-by-field truncation checks (the cases above fail frame-level
	// length validation instead).
	var shortMeta bytes.Buffer
	if err := writeFrame(&shortMeta, snapshotVersion, kindSnapshot, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	var multi bytes.Buffer
	if err := EncodeSnapshotFrame(&multi, multiChunkSnapshot()); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated metadata":  base[:headerLen+10],
		"truncated state":     base[:len(base)-1],
		"length mismatch":     lengthened(base),
		"nan epsilon":         nanEps,
		"future version":      mutate(base, 4, 3),
		"short v2 metadata":   shortMeta.Bytes(),
		"truncated mid-chunk": multi.Bytes()[:multi.Len()-8*snapshotChunkFloats-1],
	} {
		if _, err := DecodeSnapshotFrame(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

// A state entry no accumulator can hold — NaN, ±Inf, negative — is refused
// by name, wherever in the state it sits: a corrupt shard's /snapshot or
// checkpoint would otherwise reach the read path and serve a NaN interval.
func TestDecodeSnapshotFrameRejectsCorruptState(t *testing.T) {
	for name, v := range map[string]float64{
		"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1), "negative": -0.5,
	} {
		for _, at := range []int{0, snapshotChunkFloats + 1} {
			s := multiChunkSnapshot()
			s.State[at] = v
			var buf bytes.Buffer
			if err := EncodeSnapshotFrame(&buf, s); err != nil {
				t.Fatal(err)
			}
			_, err := DecodeSnapshotFrame(&buf)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("entry %d ", at)) {
				t.Fatalf("%s state entry %d: decode error %v, want one naming the entry", name, at, err)
			}
		}
	}
}

// Identity strings over the one-byte length field must be refused by the
// encoder, not silently truncated.
func TestEncodeSnapshotFrameRejectsOversizedIdentity(t *testing.T) {
	long := string(make([]byte, maxSnapshotMeta+1))
	var buf bytes.Buffer
	if err := EncodeSnapshotFrame(&buf, Snapshot{Info: Info{Digest: long}}); err == nil {
		t.Fatal("oversized digest accepted")
	}
	if err := EncodeSnapshotFrame(&buf, Snapshot{Info: Info{Mechanism: long}}); err == nil {
		t.Fatal("oversized mechanism name accepted")
	}
}

// DecodeSnapshotHead stops after the epoch: it returns the count and epoch
// of either version's frame, and every byte after them is still unread, in
// the reader it hands on to DecodeSnapshotFrame and in the source. A frame
// cut inside its head is refused, naming the field it ends in.
func TestDecodeSnapshotHeadReadsOnlyTheHead(t *testing.T) {
	var v1 bytes.Buffer
	if err := EncodeSnapshot(&v1, []float64{1, 2, 3}, 11); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := EncodeSnapshotFrame(&v2, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		frame   []byte
		version byte
		count   float64
		epoch   uint64
		headLen int
	}{
		{v1.Bytes(), 1, 11, 0, headerLen + 8},
		{v2.Bytes(), 2, sampleSnapshot().Count, sampleSnapshot().Epoch, headerLen + 16},
	} {
		src := bytes.NewReader(c.frame)
		head, version, rest, err := decodeSnapshotHead(src)
		if err != nil {
			t.Fatalf("v%d: %v", c.version, err)
		}
		if version != c.version || head.Count != c.count || head.Epoch != c.epoch || head.State != nil || head.Info != (Info{}) {
			t.Fatalf("v%d: head %+v, version %d", c.version, head, version)
		}
		if left := len(c.frame) - c.headLen; src.Len() != left || rest.N != int64(left) {
			t.Fatalf("v%d: %d source bytes and %d payload bytes left, want %d", c.version, src.Len(), rest.N, left)
		}
		for cut := 0; cut < c.headLen; cut++ {
			_, err := DecodeSnapshotHead(bytes.NewReader(c.frame[:cut]))
			if err == nil {
				t.Fatalf("v%d: a frame cut at byte %d inside its head decoded", c.version, cut)
			}
			want := "" // inside the frame header, whose refusals say so their own way
			if cut >= headerLen+8 {
				want = "truncated at its epoch"
			} else if cut >= headerLen {
				want = "truncated at its count"
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d: a frame cut at byte %d: %v, want %q", c.version, cut, err, want)
			}
		}
	}
}
