package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// The goldens pin both directions of every file kind: the checked-in bytes,
// written by a past build, keep decoding to the same values — an on-disk
// log must survive an upgrade — and the writer still produces them byte for
// byte, so no byte of the format moves unnoticed. The gzipped checkpoint
// pins only the decode: compressor output may legitimately change across Go
// releases.

// golden regenerates testdata/<name> from got when UPDATE_GOLDEN=1 and
// returns the checked-in bytes.
func golden(t *testing.T, name string, got []byte) []byte {
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

// pinBytes fails t unless the writer's output equals the golden bytes.
func pinBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the writer no longer produces the golden bytes:\n got %x\nwant %x", name, got, want)
	}
}

func TestWALRecordGoldenCompatibility(t *testing.T) {
	want := sampleRecord()
	enc, err := AppendRecord(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	data := golden(t, "wal_record_v1.golden", enc)
	pinBytes(t, "wal_record_v1.golden", enc, data)
	got, err := DecodeRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden WAL record no longer decodes: %v", err)
	}
	if got.Epoch != want.Epoch || got.Key != want.Key || got.Digest != want.Digest || !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatalf("golden WAL record decoded to %+v, want %+v", got, want)
	}
}

func TestBindingRecordGoldenCompatibility(t *testing.T) {
	want := Binding{Key: "00f1e2d3c4b5a6978877665544332211", Endpoint: "http://shard-1.internal:8089"}
	enc, err := AppendBinding(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	data := golden(t, "binding_record_v2.golden", enc)
	pinBytes(t, "binding_record_v2.golden", enc, data)
	got, err := DecodeBinding(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden binding record no longer decodes: %v", err)
	}
	if got != want {
		t.Fatalf("golden binding record decoded to %+v, want %+v", got, want)
	}
}

// checkpoint_v1.golden predates the streaming codec and still decodes
// through the buffered reference codec.
func TestCheckpointGoldenCompatibility(t *testing.T) {
	wantSeq := uint64(7)
	wantSnap := transport.Snapshot{
		State: []float64{0, 1.5, 2.25, 1e-300},
		Count: 4096,
		Epoch: 19,
		Info:  transport.Info{Mechanism: "strategy", Domain: 4, Epsilon: 1.25, Digest: "00f1e2d3c4b5a697"},
	}
	wantKeys := sampleKeys()
	enc, err := encodeCheckpoint(wantSeq, wantSnap, wantKeys)
	if err != nil {
		t.Fatal(err)
	}
	data := golden(t, "checkpoint_v1.golden", enc)
	pinBytes(t, "checkpoint_v1.golden", enc, data)
	seq, snap, keys, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes: %v", err)
	}
	if seq != wantSeq || snap.Count != wantSnap.Count || snap.Epoch != wantSnap.Epoch || snap.Info != wantSnap.Info || !reflect.DeepEqual(snap.State, wantSnap.State) {
		t.Fatalf("golden checkpoint decoded to seq=%d %+v", seq, snap)
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("golden checkpoint key table decoded to %+v, want %+v", keys, wantKeys)
	}
}

// The two checkpoint-stream goldens are the streaming writer's, one per
// version.
func TestCheckpointStreamGoldenCompatibility(t *testing.T) {
	wantSnap, wantKeys := sampleSnapshot(), sampleKeys()
	for _, tc := range []struct {
		name     string
		compress bool
	}{
		{"checkpoint_stream_v1", false},
		{"checkpoint_stream_v2", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, err := writeCheckpointFile(dir, 7, wantSnap, wantKeys, tc.compress)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data := golden(t, tc.name+".golden", enc)
			if !tc.compress {
				pinBytes(t, tc.name+".golden", enc, data)
			}
			gpath := filepath.Join(dir, "golden.ckpt")
			if err := os.WriteFile(gpath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var keys keyCollector
			snap, gz, err := readCheckpointFile(gpath, 7, keys.visit)
			if err != nil {
				t.Fatalf("%s no longer decodes: %v", tc.name, err)
			}
			if gz != tc.compress {
				t.Fatalf("%s: compressed=%v, want %v", tc.name, gz, tc.compress)
			}
			if snap.Count != wantSnap.Count || snap.Epoch != wantSnap.Epoch || snap.Info != wantSnap.Info || !reflect.DeepEqual(snap.State, wantSnap.State) {
				t.Fatalf("%s decoded to %+v", tc.name, snap)
			}
			if !reflect.DeepEqual([]transport.KeyCount(keys), wantKeys) {
				t.Fatalf("%s key table decoded to %+v", tc.name, keys)
			}
		})
	}
}
