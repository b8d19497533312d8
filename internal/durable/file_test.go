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
// content over an older file, and a write callback that fails leaves the old
// file byte for byte and no temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	const name = "replaced.bin"
	path := filepath.Join(dir, name)
	replace := func(content string) error {
		return ReplaceFile(path, func(f *os.File) error {
			_, err := f.Write([]byte(content))
			return err
		})
	}
	if err := replace("old content"); err != nil {
		t.Fatal(err)
	}
	if err := replace("the new, longer content"); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != "the new, longer content" {
		t.Fatalf("replace left %q", before)
	}

	boom := errors.New("write failed")
	err = ReplaceFile(path, func(f *os.File) error {
		if _, err := f.Write([]byte("half a new file")); err != nil {
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
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s (no temp file left behind)", names, name)
	}
}
