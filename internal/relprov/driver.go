package relprov

import (
	"fmt"
	"os"

	"repro/internal/provstore"
	"repro/internal/relstore"
)

// This file registers the "rel" backend driver: a relational provenance
// store addressed as rel://path/to/file.db with parameters
//
//	create=1    create the database file (it must not exist yet)
//	durable=1   attach a write-ahead log (file + ".wal") and group-commit
//	            every append batch; on open, first replay the log: after a
//	            crash it holds everything committed since the data file was
//	            last fsynced
//
// so cpdb.OpenBackend (and any DSN-configured deployment) can reach the
// relational engine without calling its constructors directly.

func init() {
	provstore.RegisterDriver("rel", provstore.DriverFunc(openDSN))
}

func openDSN(dsn provstore.DSN) (provstore.Backend, error) {
	if dsn.Path == "" {
		return nil, fmt.Errorf("relprov: dsn %s: missing database file path", dsn)
	}
	var opts Options
	var err error
	if opts.Create, err = dsn.BoolParam("create"); err != nil {
		return nil, err
	}
	if opts.Durable, err = dsn.BoolParam("durable"); err != nil {
		return nil, err
	}
	if err := dsn.RejectUnknownParams("create", "durable"); err != nil {
		return nil, err
	}
	return OpenFile(dsn.Path, opts)
}

// Options configures OpenFile.
type Options struct {
	// Create makes a fresh database file instead of opening an existing
	// one.
	Create bool
	// Durable attaches a write-ahead log (file + ".wal") and group-commits
	// every append batch, replaying the log on open. See
	// Backend.EnableGroupCommit.
	Durable bool
}

// OpenFile opens (or, with opts.Create, creates) a relational provenance
// store in the given database file. With opts.Durable the store group-
// commits through a write-ahead log at file + ".wal"; opening an existing
// durable store replays that log first, restoring whatever a crash kept
// from the data file (which is written only when pages must leave memory
// and fsynced only at checkpoints). A clean Close leaves the log empty.
// Close the returned backend to release the files.
func OpenFile(file string, opts Options) (*Backend, error) {
	walFile := file + ".wal"
	if !opts.Create {
		// A non-empty log is replayed even when this open will not write
		// one: it holds commits a crashed durable session acknowledged
		// and the data file may lack.
		if fi, err := os.Stat(walFile); opts.Durable || err == nil && fi.Size() > 0 {
			if _, err := relstore.RecoverPager(file, walFile); err != nil {
				return nil, err
			}
		}
	}
	var (
		db  *relstore.DB
		err error
	)
	if opts.Create {
		db, err = relstore.Create(file)
	} else {
		db, err = relstore.Open(file)
	}
	if err != nil {
		return nil, err
	}
	var b *Backend
	if opts.Create {
		b, err = Create(db)
	} else {
		b, err = Open(db)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	if opts.Durable {
		var w *relstore.WAL
		if opts.Create {
			w, err = relstore.CreateWAL(walFile)
		} else {
			w, err = relstore.OpenWAL(walFile)
		}
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := b.EnableGroupCommit(w); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}
