package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// golden regenerates testdata/<name> from got when UPDATE_GOLDEN=1 and
// returns the checked-in bytes. The goldens pin decode compatibility: WAL
// records and checkpoints written by a past version of this library must keep
// loading to the same values — an on-disk log must survive an upgrade.
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

func TestWALRecordGoldenCompatibility(t *testing.T) {
	want := sampleRecord()
	enc, err := EncodeRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	data := golden(t, "wal_record_v1.golden", enc)
	got, err := DecodeRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden WAL record no longer decodes: %v", err)
	}
	if got.Epoch != want.Epoch || got.Key != want.Key || got.Digest != want.Digest || !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatalf("golden WAL record decoded to %+v, want %+v", got, want)
	}
}

func TestCheckpointGoldenCompatibility(t *testing.T) {
	wantSeq := uint64(7)
	wantSnap := transport.Snapshot{
		State: []float64{0, 1.5, -2.25, 1e-300},
		Count: 4096,
		Epoch: 19,
		Info:  transport.Info{Mechanism: "strategy", Domain: 4, Epsilon: 1.25, Digest: "00f1e2d3c4b5a697"},
	}
	wantKeys := []transport.KeyCount{
		{Key: "00f1e2d3c4b5a6978877665544332211", Reports: 4090},
		{Key: "fefefefefefefefe0101010101010101", Reports: 6},
	}
	enc, err := encodeCheckpoint(wantSeq, wantSnap, wantKeys)
	if err != nil {
		t.Fatal(err)
	}
	data := golden(t, "checkpoint_v1.golden", enc)
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
