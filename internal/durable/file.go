package durable

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Every file kind this package writes — WAL records, binding records,
// checkpoints — frames its payload in the same envelope:
//
//	magic   [4]byte  per kind ("LDPW", "LDPC")
//	version uint8
//	crc     uint32   big-endian IEEE CRC-32 of the payload
//	length  uint32   big-endian payload byte count
//	payload [length]byte
//
// beginEnvelope and sealEnvelope are its one writer, checkHeader its one
// header check.
const envelopeHeaderLen = 4 + 1 + 4 + 4

// beginEnvelope appends a header for magic and version to buf with the CRC
// and length left zero; sealEnvelope patches them once the payload is known.
func beginEnvelope(buf []byte, magic string, version byte) []byte {
	buf = append(buf, magic...)
	buf = append(buf, version)
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// sealEnvelope patches the CRC and length of the payload into the header at
// the start of hdr.
func sealEnvelope(hdr []byte, crc uint32, length int) {
	binary.BigEndian.PutUint32(hdr[5:], crc)
	binary.BigEndian.PutUint32(hdr[9:], uint32(length))
}

// checkHeader validates one envelope header — the magic, a version among
// versions, and a declared payload length of at most maxPayload — and
// returns the version, CRC and length. Callers check the length here, before
// they allocate or read the payload, so a corrupt prefix cannot reserve more
// than the file kind allows. The error says what is wrong; the caller wraps
// it in its kind's sentinel.
func checkHeader(hdr []byte, magic string, maxPayload uint32, versions ...byte) (version byte, crc, length uint32, err error) {
	if string(hdr[:4]) != magic {
		return 0, 0, 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if version = hdr[4]; !slices.Contains(versions, version) {
		return 0, 0, 0, fmt.Errorf("unsupported version %d", version)
	}
	crc = binary.BigEndian.Uint32(hdr[5:])
	if length = binary.BigEndian.Uint32(hdr[9:]); length > maxPayload {
		return 0, 0, 0, fmt.Errorf("declares %d payload bytes, over the %d-byte limit of a version-%d file", length, maxPayload, version)
	}
	return version, crc, length, nil
}

// ReplaceFile atomically replaces path with what write puts into a temp file
// beside it: write, fsync, close, rename over path, fsync the directory. A
// crash leaves either the old file or the complete new one. On any failure
// before the rename the temp file is removed and path is untouched. write
// gets the *os.File, so a writer may patch bytes it already wrote (WriteAt).
func ReplaceFile(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creations within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
