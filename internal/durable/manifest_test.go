package durable

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func sampleManifest() []manifestEntry {
	return []manifestEntry{
		{Seq: 4, Epoch: 4, Count: 512},
		{Seq: 6, Epoch: 6, Count: 768, Compressed: true},
		{Seq: 7, Epoch: 7, Count: 896},
		{Seq: 8, Epoch: 8, Count: 1024, Compressed: true},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	want := sampleManifest()
	data, err := encodeManifest(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the manifest: %+v != %+v", got, want)
	}
	empty, err := encodeManifest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeManifest(bytes.NewReader(empty)); err != nil || len(got) != 0 {
		t.Fatalf("empty manifest round trip: %v, %v", got, err)
	}
}

func TestManifestEncodeRejects(t *testing.T) {
	cases := map[string][]manifestEntry{
		"duplicate seq":    {{Seq: 3, Epoch: 3}, {Seq: 3, Epoch: 4}},
		"descending seq":   {{Seq: 5, Epoch: 5}, {Seq: 4, Epoch: 6}},
		"descending epoch": {{Seq: 3, Epoch: 5}, {Seq: 4, Epoch: 4}},
		"NaN count":        {{Seq: 3, Epoch: 3, Count: math.NaN()}},
		"negative count":   {{Seq: 3, Epoch: 3, Count: -1}},
		"infinite count":   {{Seq: 3, Epoch: 3, Count: math.Inf(1)}},
	}
	for name, entries := range cases {
		if _, err := encodeManifest(entries); err == nil {
			t.Errorf("%s: encode accepted %+v", name, entries)
		}
	}
}

func TestManifestDecodeRejectsCorruption(t *testing.T) {
	data, err := encodeManifest(sampleManifest())
	if err != nil {
		t.Fatal(err)
	}
	// Any single flipped bit must fail the CRC (or a structural check) — a
	// manifest is trusted as an index only when it is bit-exact.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := decodeManifest(bytes.NewReader(mut)); err == nil {
			t.Fatalf("decode accepted a manifest with byte %d flipped", i)
		}
	}
	if _, err := decodeManifest(bytes.NewReader(append(data, 0))); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

// The crash-consistency sweep: a manifest truncated at EVERY byte offset must
// decode to an error — never to a silently shortened entry list — so the
// store's fallback (rebuilding the index from the checkpoint files) always
// takes over and no retained epoch quietly disappears from history.
func TestManifestTruncationNeverSilentlyShortens(t *testing.T) {
	data, err := encodeManifest(sampleManifest())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if got, err := decodeManifest(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at byte %d decoded cleanly to %d entries — a crash could silently lose retained epochs", cut, len(got))
		}
	}
}

// The same sweep through the file layer: LoadManifest over every truncated
// file errors (so the store rebuilds) or — at cut 0 on an empty-but-present
// file — still errors, because an empty file is not a valid manifest.
func TestLoadManifestTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifest(dir, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifest(dir); !errors.Is(err, errInvalidManifest) {
			t.Fatalf("truncation at byte %d: want errInvalidManifest, got %v", cut, err)
		}
	}
	// Restore and confirm the undamaged file still loads.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := loadManifest(dir); err != nil || !reflect.DeepEqual(got, sampleManifest()) {
		t.Fatalf("restored manifest failed to load: %v, %v", got, err)
	}
	// A missing manifest is not an error — just an unindexed directory.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got, err := loadManifest(dir); err != nil || got != nil {
		t.Fatalf("missing manifest: want (nil, nil), got (%v, %v)", got, err)
	}
}

// A manifest's size is refused before it is read: the declared length is
// checked against the entry cap before the payload is allocated, and
// trailing data is found by reading one byte past the payload — so neither a
// huge file of zeros nor a valid manifest with a huge tail costs more than
// one capped payload of memory. Both files are sparse: 1 GiB of logical
// size, no disk.
func TestLoadManifestRefusesOversizedFileWithoutReadingIt(t *testing.T) {
	valid, err := encodeManifest(sampleManifest())
	if err != nil {
		t.Fatal(err)
	}
	for name, head := range map[string][]byte{
		"zeros":             nil,
		"valid then a tail": valid,
	} {
		dir := t.TempDir()
		f, err := os.Create(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(head); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(1 << 30); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = loadManifest(dir)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errInvalidManifest) {
			t.Fatalf("%s: want errInvalidManifest, got %v", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: refusing a 1 GiB manifest allocated %d bytes, want under 1 MiB", name, alloc)
		}
	}
}
