package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Snapshot persistence: the whole store serializes to one versioned binary
// blob in the framed-wire style of internal/wire — a magic
// prefix, a version byte, uvarint counts, length-prefixed strings, and
// float64s as IEEE-754 bits (little-endian). Decoding is hardened the
// same way the wire decoder is: every declared length is validated
// against the bytes actually present before anything is allocated, every
// failure is one of the typed errors below, and the receiving store is
// left unchanged on any error (the brnn.UnmarshalBinary contract).
//
// On-disk writes are atomic: the snapshot lands in a temp file in the
// destination directory and is renamed over the target, so a crash
// mid-write leaves the previous snapshot intact.

// snapshotMagic prefixes every snapshot blob.
const snapshotMagic = "VGPF"

// SnapshotVersion is the encoding version stamped after the magic.
const SnapshotVersion = 1

// Typed snapshot-decode errors: any blob either decodes or fails with one
// of these — never a panic, never a partially applied store.
var (
	// ErrBadMagic is returned for a blob that does not start with the
	// snapshot magic (not a profile snapshot at all).
	ErrBadMagic = errors.New("profile: snapshot magic mismatch")
	// ErrUnknownSnapshotVersion is returned for a snapshot written by an
	// unknown encoding version.
	ErrUnknownSnapshotVersion = errors.New("profile: unknown snapshot version")
	// ErrCorruptSnapshot is returned for truncated blobs, overlong
	// varints, and lengths inconsistent with the bytes present.
	ErrCorruptSnapshot = errors.New("profile: corrupt snapshot")
)

// EncodeSnapshot serializes every profile. The encoding is deterministic:
// profiles are walked in the Range order (sorted within each shard), so
// two stores with identical contents produce identical bytes.
func (s *Store) EncodeSnapshot() []byte {
	var profiles []Profile
	s.Range(func(p Profile) bool {
		profiles = append(profiles, p)
		return true
	})
	dst := append([]byte(nil), snapshotMagic...)
	dst = append(dst, SnapshotVersion)
	dst = binary.AppendUvarint(dst, uint64(len(profiles)))
	for _, p := range profiles {
		dst = appendString(dst, p.UserID)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Mean))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Offset))
		dst = binary.AppendUvarint(dst, p.Samples)
		dst = binary.AppendUvarint(dst, uint64(len(p.Devices)))
		for _, d := range p.Devices {
			dst = appendString(dst, d)
		}
	}
	return dst
}

// DecodeSnapshot replaces the store's contents with the snapshot's. On any
// error the store is unchanged: the blob decodes into fresh shard maps
// first, and only a fully valid snapshot is swapped in.
func (s *Store) DecodeSnapshot(data []byte) error {
	profiles, err := decodeProfiles(data)
	if err != nil {
		return err
	}
	fresh := make([]map[string]*Profile, len(s.shards))
	for i := range fresh {
		fresh[i] = make(map[string]*Profile)
	}
	for i := range profiles {
		p := profiles[i]
		fresh[mixHash(p.UserID)&s.mask][p.UserID] = &p
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.users = fresh[i]
		sh.mu.Unlock()
	}
	return nil
}

// decodeProfiles parses a snapshot blob into profiles, validating every
// length before allocating.
func decodeProfiles(data []byte) ([]Profile, error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, ErrBadMagic
	}
	data = data[len(snapshotMagic):]
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: missing version", ErrCorruptSnapshot)
	}
	if data[0] != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSnapshotVersion, data[0])
	}
	data = data[1:]
	count, n, err := takeUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("%w: profile count", ErrCorruptSnapshot)
	}
	data = data[n:]
	// Each profile needs at least 1+8+8+1+1 bytes, so the count bounds the
	// allocation against the bytes actually present.
	if count > uint64(len(data)/19)+1 {
		return nil, fmt.Errorf("%w: %d profiles in %d bytes", ErrCorruptSnapshot, count, len(data))
	}
	profiles := make([]Profile, 0, count)
	for i := uint64(0); i < count; i++ {
		var p Profile
		if p.UserID, data, err = takeSnapString(data); err != nil {
			return nil, err
		}
		if len(data) < 16 {
			return nil, fmt.Errorf("%w: truncated calibration of %q", ErrCorruptSnapshot, p.UserID)
		}
		p.Mean = math.Float64frombits(binary.LittleEndian.Uint64(data))
		p.Offset = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
		if p.Samples, n, err = takeUvarint(data); err != nil {
			return nil, fmt.Errorf("%w: sample count of %q", ErrCorruptSnapshot, p.UserID)
		}
		data = data[n:]
		devCount, n, err := takeUvarint(data)
		if err != nil {
			return nil, fmt.Errorf("%w: device count of %q", ErrCorruptSnapshot, p.UserID)
		}
		data = data[n:]
		if devCount > uint64(len(data)) {
			return nil, fmt.Errorf("%w: %d devices in %d bytes", ErrCorruptSnapshot, devCount, len(data))
		}
		if devCount > 0 {
			p.Devices = make([]string, 0, devCount)
			for j := uint64(0); j < devCount; j++ {
				var d string
				if d, data, err = takeSnapString(data); err != nil {
					return nil, err
				}
				p.Devices = append(p.Devices, d)
			}
		}
		profiles = append(profiles, p)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, len(data))
	}
	return profiles, nil
}

// Save writes the snapshot atomically: a temp file in path's directory,
// then a rename over path.
func (s *Store) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("profile: snapshot temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(s.EncodeSnapshot()); err != nil {
		return fmt.Errorf("profile: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("profile: snapshot sync: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		_ = os.Remove(name)
		return fmt.Errorf("profile: snapshot close: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return fmt.Errorf("profile: snapshot rename: %w", err)
	}
	return nil
}

// Load replaces the store's contents with the snapshot at path. The store
// is unchanged on any error (missing file, corrupt blob).
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("profile: snapshot read: %w", err)
	}
	return s.DecodeSnapshot(data)
}

// appendString appends a uvarint-length-prefixed string (the wire.go
// string encoding).
func appendString(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// takeUvarint decodes a uvarint from the head of data.
func takeUvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, ErrCorruptSnapshot
	}
	return v, n, nil
}

// takeSnapString decodes a length-prefixed string, validating the length
// against the bytes present before copying.
func takeSnapString(data []byte) (string, []byte, error) {
	n, sz, err := takeUvarint(data)
	if err != nil {
		return "", nil, fmt.Errorf("%w: string length", ErrCorruptSnapshot)
	}
	data = data[sz:]
	if n > uint64(len(data)) {
		return "", nil, fmt.Errorf("%w: string of %d bytes in %d remaining", ErrCorruptSnapshot, n, len(data))
	}
	return string(data[:n]), data[n:], nil
}
