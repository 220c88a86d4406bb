//go:build linux

package relprov_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/relprov"
	"repro/internal/relstore"
)

// TestWALWriteFailureFailsClosed: a durable store whose log write fails
// fails closed. The test lowers its own process's RLIMIT_FSIZE to the log's
// size, so the next log write fails with EFBIG (the Go runtime ignores
// SIGXFSZ), and lifts it again once the append has failed. The refused
// append is then in no scan and no count, a retry is refused with
// relstore.ErrCommitFailed rather than as a duplicate, Close writes neither
// file, and a reopen holds exactly the record acknowledged before.
func TestWALWriteFailureFailsClosed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	file := filepath.Join(dir, "prov.db")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	acked := []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}
	if err := b.Append(ctx, acked); err != nil {
		t.Fatal(err)
	}
	log, err := os.Stat(file + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lift := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restoring RLIMIT_FSIZE: %v", err)
		}
	}
	t.Cleanup(lift)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: uint64(log.Size()), Max: old.Max}); err != nil {
		t.Fatal(err)
	}
	refused := []provstore.Record{rec(2, provstore.OpInsert, "T/b", "")}
	err = b.Append(ctx, refused)
	lift()
	if !errors.Is(err, relstore.ErrCommitFailed) || !errors.Is(err, syscall.EFBIG) {
		t.Errorf("Append over a full log: %v; want ErrCommitFailed wrapping EFBIG", err)
	}

	for _, spec := range []provstore.ScanSpec{provstore.All(), provstore.ByTid(2), provstore.ByLoc(path.MustParse("T/b")), provstore.ByPrefix(path.MustParse("T"))} {
		for r, err := range b.Scan(ctx, spec) {
			if err != nil {
				if !errors.Is(err, relstore.ErrCommitFailed) {
					t.Errorf("%v: %v; want ErrCommitFailed", spec, err)
				}
				break
			}
			if r.Tid == 2 {
				t.Errorf("%v yielded the refused record %v", spec, r)
			}
		}
	}
	if st, err := b.Stat(ctx); !errors.Is(err, relstore.ErrCommitFailed) || st.Count > 1 {
		t.Errorf("Stat = %+v, %v; want ErrCommitFailed and no refused record counted", st, err)
	}
	var dup *provstore.DupKeyError
	if err := b.Append(ctx, refused); !errors.Is(err, relstore.ErrCommitFailed) || errors.As(err, &dup) {
		t.Errorf("retried Append: %v; want ErrCommitFailed, not a duplicate", err)
	}

	data, wal := readFile(t, file), readFile(t, file+".wal")
	if err := b.Close(); !errors.Is(err, relstore.ErrCommitFailed) {
		t.Errorf("Close: %v; want ErrCommitFailed", err)
	}
	if !bytes.Equal(readFile(t, file), data) || !bytes.Equal(readFile(t, file+".wal"), wal) {
		t.Error("Close of a store that failed closed wrote to its files")
	}
	checkStore(t, dir, acked)
}
