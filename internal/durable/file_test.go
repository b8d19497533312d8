package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ReplaceFile is the one atomic replace behind every file this package
// writes (and the strategy cache): a successful replace swaps in the new
// content — here through writeManifest, over an older manifest — and a write
// callback that fails leaves the old file byte for byte and no temp file
// behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifest(dir, sampleManifest()[:2]); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleManifest()) {
		t.Fatalf("replace left %+v", got)
	}
	path := filepath.Join(dir, manifestName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("write failed")
	err = ReplaceFile(path, func(f *os.File) error {
		if _, err := f.Write([]byte("half a new manifest")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ReplaceFile returned %v, want the callback's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("a failed replace changed the file:\n got %x\nwant %x", after, before)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != manifestName {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s (no temp file left behind)", names, manifestName)
	}
}
