package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func TestModelWriteTime(t *testing.T) {
	m := Model{Name: "x", Latency: des.Millisecond, Bandwidth: 100e6}
	// 100 MB at 100 MB/s = 1s + 1ms.
	if got := m.WriteTime(100e6); got != des.Second+des.Millisecond {
		t.Fatalf("WriteTime = %v", got)
	}
	if got := (Model{Latency: des.Millisecond}).WriteTime(1e9); got != des.Millisecond {
		t.Fatalf("zero-bandwidth WriteTime = %v", got)
	}
}

func TestPaperSinks(t *testing.T) {
	if QsNetSink().Bandwidth != 900e6 {
		t.Fatal("QsNet peak must be 900 MB/s (paper §3)")
	}
	if SCSISink().Bandwidth != 320e6 {
		t.Fatal("SCSI peak must be 320 MB/s (paper §3)")
	}
	// Sage-1000MB's 78.8 MB/s average: 9% of network, 25% of disk.
	if h := QsNetSink().Headroom(78.8e6); h < 11 || h > 12 {
		t.Fatalf("QsNet headroom = %v, want ~11.4", h)
	}
	if h := SCSISink().Headroom(78.8e6); h < 4 || h > 4.2 {
		t.Fatalf("SCSI headroom = %v, want ~4.06", h)
	}
	if QsNetSink().Headroom(0) != 0 {
		t.Fatal("zero requirement headroom")
	}
}

// storeSuite exercises the Store contract on any implementation.
func storeSuite(t *testing.T, s Store) {
	t.Helper()
	if err := s.Put("a/1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/2", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte{}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/1")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get: %q %v", got, err)
	}
	// Overwrite.
	if err := s.Put("a/1", []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("a/1")
	if string(got) != "HELLO" {
		t.Fatalf("overwrite: %q", got)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/1", "a/2", "b"}
	if len(keys) != 3 {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
	size, err := s.Size()
	if err != nil || size != 11 {
		t.Fatalf("Size = %d %v, want 11", size, err)
	}
	if err := s.Delete("a/2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a/2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("a/2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing err = %v, want ErrNotFound", err)
	}
}

func TestMemStore(t *testing.T) { storeSuite(t, NewMemStore()) }
func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir() + "/ckpt")
	if err != nil {
		t.Fatal(err)
	}
	storeSuite(t, fs)
}

func TestFileStoreInvalidKeys(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "/abs"} {
		if err := fs.Put(key, []byte("x")); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
}

// A key named like a temp file would be stored but hidden from Keys and
// Size, so it is invalid; a ".tmp" directory name hides nothing.
func TestFileStoreRejectsTempNames(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rank000/notes.tmp", "seg.tmp7"} {
		if err := fs.Put(key, []byte("x")); err == nil || !strings.Contains(err.Error(), "invalid key") {
			t.Errorf("Put(%q) = %v, want an invalid-key error", key, err)
		}
	}
	if err := fs.Put("r.tmp/seg", []byte("xy")); err != nil {
		t.Fatal(err)
	}
	keys, err := fs.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "r.tmp/seg" {
		t.Fatalf("Keys = %v, %v; want [r.tmp/seg]", keys, err)
	}
	if n, err := fs.Size(); err != nil || n != 2 {
		t.Fatalf("Size = %d, %v; want 2", n, err)
	}
}

// TestFileStorePutAtomicity: Put must leave no temp residue, and a
// half-written temp file must never shadow or appear alongside real
// keys.
func TestFileStorePutAtomicity(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.Put("r/seg", bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a writer that crashed mid-Put, leaving a temp file.
	if err := os.WriteFile(filepath.Join(dir, "r", "seg.tmp12345"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := fs.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.Contains(k, ".tmp") {
			t.Fatalf("temp residue leaked into Keys: %v", keys)
		}
	}
	if len(keys) != 1 || keys[0] != "r/seg" {
		t.Fatalf("Keys = %v, want [r/seg]", keys)
	}
	if n, err := fs.Size(); err != nil || n != 1024 {
		t.Fatalf("Size = %d, %v — temp residue counted?", n, err)
	}
	got, err := fs.Get("r/seg")
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{9}, 1024)) {
		t.Fatalf("final value wrong: %v", err)
	}
}

// TestWriteFileAtomicSyncsDirectory: the rename is flushed by syncing
// path's directory, and a failed directory sync is the write's error —
// the file is in place, but a crash could still undo the rename.
func TestWriteFileAtomicSyncsDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	path := filepath.Join(dir, "manifest")
	var synced []string
	failSync := errors.New("directory sync failed")
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(d string) error {
		synced = append(synced, d)
		return failSync
	}
	if err := WriteFileAtomic(path, []byte("v1")); !errors.Is(err, failSync) {
		t.Fatalf("WriteFileAtomic = %v, want the directory sync error", err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %q, want [%q]", synced, dir)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "v1" {
		t.Fatalf("file after a failed directory sync = %q, %v; want the renamed v1", got, err)
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("r/seg", []byte("x")); !errors.Is(err, failSync) {
		t.Fatalf("FileStore.Put = %v, want the directory sync error", err)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	data := []byte("abc")
	s.Put("k", data)
	data[0] = 'X' // mutating caller's slice must not affect the store
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("store aliased caller data: %q", got)
	}
}

// Property: both stores agree with a reference map under random op
// sequences.
func TestPropertyStoreModelEquivalence(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		mem := NewMemStore()
		ref := map[string][]byte{}
		for i := 0; i < int(nOps); i++ {
			key := fmt.Sprintf("k%d", rng.IntN(8))
			switch rng.IntN(3) {
			case 0:
				val := make([]byte, rng.IntN(64))
				for j := range val {
					val[j] = byte(rng.IntN(256))
				}
				mem.Put(key, val)
				ref[key] = append([]byte(nil), val...)
			case 1:
				got, err := mem.Get(key)
				want, ok := ref[key]
				if ok != (err == nil) {
					return false
				}
				if ok && !bytes.Equal(got, want) {
					return false
				}
			case 2:
				err := mem.Delete(key)
				_, ok := ref[key]
				if ok != (err == nil) {
					return false
				}
				delete(ref, key)
			}
		}
		keys, _ := mem.Keys()
		return len(keys) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMemStorePut(b *testing.B) {
	s := NewMemStore()
	data := make([]byte, 16*1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		s.Put("k", data)
	}
}
