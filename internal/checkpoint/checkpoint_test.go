package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type fakeState struct {
	Next int       `json:"next"`
	Vals []float64 `json:"vals"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := fakeState{Next: 64, Vals: []float64{1.25, -3e-17, 0.1}}
	if err := st.Save("job-key", "mc", 64, in); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	info, ok, err := st.Load("job-key", &out)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if info.Kind != "mc" || info.Seq != 64 || info.Key != "job-key" {
		t.Fatalf("bad info %+v", info)
	}
	if out.Next != in.Next || len(out.Vals) != len(in.Vals) || out.Vals[1] != in.Vals[1] {
		t.Fatalf("payload mismatch: %+v", out)
	}

	// A second Save replaces the first atomically.
	if err := st.Save("job-key", "mc", 128, fakeState{Next: 128}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Load("job-key", &out); !ok || out.Next != 128 {
		t.Fatalf("replacement not visible: ok=%v next=%d", ok, out.Next)
	}

	st.Delete("job-key")
	if _, ok, _ := st.Load("job-key", &out); ok {
		t.Fatal("snapshot survived Delete")
	}
}

func TestLoadMissing(t *testing.T) {
	st, _ := Open(t.TempDir())
	var out fakeState
	if _, ok, err := st.Load("nope", &out); ok || err != nil {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
}

// A crash between tmp write and rename (simulated via BeforeRename)
// must leave the previous snapshot intact and resumable.
func TestTornTmpPreservesPreviousSnapshot(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := st.Save("k", "mc", 32, fakeState{Next: 32}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected crash")
	st.BeforeRename = func(string) error { return boom }
	if err := st.Save("k", "mc", 64, fakeState{Next: 64}); !errors.Is(err, boom) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	st.BeforeRename = nil
	// The torn tmp file exists; Load must ignore it and serve seq 32.
	if _, err := os.Stat(filepath.Join(st.Dir(), "k.ckpt.tmp")); err != nil {
		t.Fatalf("expected torn tmp file: %v", err)
	}
	var out fakeState
	info, ok, err := st.Load("k", &out)
	if err != nil || !ok || info.Seq != 32 || out.Next != 32 {
		t.Fatalf("previous snapshot lost: ok=%v seq=%d next=%d err=%v", ok, info.Seq, out.Next, err)
	}
	// Reopening the directory sweeps the torn tmp; the snapshot stays.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(st2.Dir(), "k.ckpt.tmp")); !os.IsNotExist(err) {
		t.Fatalf("torn tmp not swept: %v", err)
	}
	if _, ok, _ := st2.Load("k", &out); !ok || out.Next != 32 {
		t.Fatal("snapshot lost across reopen")
	}
}

// A truncated or bit-flipped final file fails its checksum and is
// discarded — the job restarts cleanly rather than resuming from
// garbage.
func TestCorruptSnapshotDiscarded(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := st.Save("k", "mc", 32, fakeState{Next: 32, Vals: make([]float64, 64)}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "k.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation: not even valid JSON.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	if _, ok, err := st.Load("k", &out); ok || err != nil {
		t.Fatalf("truncated snapshot accepted: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("truncated snapshot not removed")
	}

	// Payload corruption that keeps the JSON valid: checksum rejects it.
	bad := []byte(string(data))
	for i := range bad {
		if bad[i] == '3' {
			bad[i] = '4'
		}
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Load("k", &out); ok {
		t.Fatal("checksum-corrupt snapshot accepted")
	}
}

func TestKeySanitized(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := st.Save("../evil/../../path", "mc", 1, fakeState{Next: 1}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 file inside the store dir, got %d", len(entries))
	}
	var out fakeState
	if _, ok, _ := st.Load("../evil/../../path", &out); !ok || out.Next != 1 {
		t.Fatal("sanitized key did not round-trip")
	}
}

// A snapshot from an older envelope version — intact, checksummed and
// under the right key — is discarded: its job key may now name a
// different computation (version 1 predates Monte Carlo jobs following
// the request's ordering).
func TestOlderVersionDiscarded(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := st.Save("k", "mc", 32, fakeState{Next: 32}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "k.ckpt")
	if err := rewriteVersion(path, 1); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	if _, ok, err := st.Load("k", &out); ok || err != nil {
		t.Fatalf("version-1 snapshot accepted: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("version-1 snapshot not removed")
	}
}

// rewriteVersion sets the envelope version of the snapshot at path,
// leaving its payload and checksum intact.
func rewriteVersion(path string, version int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	env.Version = version
	if data, err = json.Marshal(env); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
