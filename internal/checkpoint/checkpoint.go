// Package checkpoint persists periodic snapshots of long-running jobs
// so a crashed or deadline-killed process can resume mid-flight instead
// of restarting from scratch. It is the serving-layer analog of the
// numerics' escalation ladder: the numbers inside a snapshot are exact
// (JSON float64 encoding round-trips bit-exactly), so a resumed Monte
// Carlo run reproduces the uninterrupted result bit-for-bit.
//
// Durability model — crash-safe by construction, not by fsync:
//
//   - Save writes <key>.ckpt.tmp, then renames it onto <key>.ckpt.
//     The rename is atomic on POSIX filesystems, so <key>.ckpt is
//     always either the previous complete snapshot or the new complete
//     snapshot, never a torn mix.
//   - A crash between write and rename leaves a torn .tmp file; Load
//     never reads .tmp files and Open sweeps them, so the job resumes
//     from the previous snapshot.
//   - Every snapshot embeds a sha256 of its payload. A file that fails
//     the checksum or does not parse (truncation by a dying disk, a
//     partial write that somehow got renamed) is discarded as if no
//     snapshot existed — the job restarts cleanly, which is always
//     correct, merely slower.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Version is the on-disk envelope version; snapshots written by a
// different version are discarded rather than misinterpreted. Version
// 2: Monte Carlo jobs follow the request's ordering, so an "amd" key's
// version-1 snapshot may hold samples taken under nested dissection.
const Version = 2

// envelope is the on-disk form: a self-checking wrapper around an
// opaque payload.
type envelope struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"` // "mc", "transient", ...
	Key     string          `json:"key"`  // content address of the job
	Seq     int             `json:"seq"`  // monotonic snapshot number (e.g. samples done)
	Sum     string          `json:"sum"`  // sha256 hex of Payload bytes
	Payload json.RawMessage `json:"payload"`
}

// Info describes a loaded snapshot's envelope.
type Info struct {
	Kind string
	Key  string
	Seq  int
}

// Store manages one directory of snapshots, one file per job key.
type Store struct {
	dir string

	// BeforeRename, when non-nil, runs after the tmp file is written
	// and before it is renamed into place; returning an error aborts
	// the Save, leaving the torn tmp behind exactly as a crash at that
	// instant would. It exists for fault-injection tests (the service
	// chaos harness); production code leaves it nil.
	BeforeRename func(key string) error
}

// Open creates the directory if needed and sweeps stale tmp files left
// by crashed writers (their completed predecessors remain valid).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.ckpt.tmp"))
	for _, m := range matches {
		os.Remove(m)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the snapshot directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	// Keys are sha256 hex from the service layer, but sanitize anyway
	// so a hostile key cannot escape the directory.
	key = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key)
	return filepath.Join(s.dir, key+".ckpt")
}

// Save atomically replaces key's snapshot with payload's JSON encoding.
func (s *Store) Save(key, kind string, seq int, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", key, err)
	}
	sum := sha256.Sum256(raw)
	env := envelope{
		Version: Version, Kind: kind, Key: key, Seq: seq,
		Sum: hex.EncodeToString(sum[:]), Payload: raw,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("checkpoint: encode envelope %s: %w", key, err)
	}
	final := s.path(key)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", key, err)
	}
	if s.BeforeRename != nil {
		if err := s.BeforeRename(key); err != nil {
			return fmt.Errorf("checkpoint: %s: %w", key, err)
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("checkpoint: commit %s: %w", key, err)
	}
	return nil
}

// Load reads key's snapshot into payload. ok is false — with a nil
// error — when no usable snapshot exists: the file is absent, fails its
// checksum, carries a different envelope version or a different key, or
// does not parse. Corrupt files are removed so the next Load is cheap.
func (s *Store) Load(key string, payload any) (Info, bool, error) {
	final := s.path(key)
	data, err := os.ReadFile(final)
	if err != nil {
		if os.IsNotExist(err) {
			return Info{}, false, nil
		}
		return Info{}, false, fmt.Errorf("checkpoint: read %s: %w", key, err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		os.Remove(final)
		return Info{}, false, nil
	}
	sum := sha256.Sum256(env.Payload)
	if env.Version != Version || env.Key != key || env.Sum != hex.EncodeToString(sum[:]) {
		os.Remove(final)
		return Info{}, false, nil
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		os.Remove(final)
		return Info{}, false, nil
	}
	return Info{Kind: env.Kind, Key: env.Key, Seq: env.Seq}, true, nil
}

// Delete removes key's snapshot (and any torn tmp), called when a job
// completes fully and the snapshot has nothing left to protect.
func (s *Store) Delete(key string) {
	final := s.path(key)
	os.Remove(final)
	os.Remove(final + ".tmp")
}

// Len counts the resident snapshots (for tests and metrics).
func (s *Store) Len() int {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "*.ckpt"))
	return len(matches)
}
