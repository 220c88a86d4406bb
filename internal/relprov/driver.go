package relprov

import (
	"fmt"

	"repro/internal/provstore"
	"repro/internal/relstore"
)

// This file registers the "rel" backend driver: a relational provenance
// store addressed as rel://path/to/file.db with parameters
//
//	create=1    create a new, empty store; a store already at the path is
//	            replaced (truncated) and its log dropped
//	durable=1   write-ahead log the store (file + ".wal") and group-commit
//	            every append batch
//
// so cpdb.OpenBackend (and any DSN-configured deployment) can reach the
// relational engine without calling its constructors directly. The log is
// relstore's: its open replays it after a crash, its GroupCommit writes it,
// its Close checkpoints and closes it.

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
	// Create makes a fresh, empty store instead of opening an existing
	// one; a store already at the path is replaced and its log dropped.
	Create bool
	// Durable write-ahead logs the store (file + ".wal") and makes every
	// Append durable before it returns. See OpenFile.
	Durable bool
}

// OpenFile opens (or, with opts.Create, creates) a relational provenance
// store in the given database file: relstore.Open, then the provenance
// table, created and committed or found. relstore owns the log and its
// whole life. With opts.Durable every Append is durable before it returns,
// at the cost of one log write and one log fsync however many records or
// whole transactions it carries; a commit logs the rows it stored and
// leaves its pages in memory, so the data file is written only when pages
// must leave memory — after a commit that leaves more than half the buffer
// pool dirty, when the log is checkpointed (truncated, every few megabytes
// logged) and at Close, which leaves the log empty — and fsynced only at the
// last two. Without it the store is durable only at Close, as the paper's
// MySQL deployment was at transaction boundaries. Opening an existing store
// first replays a log that is not empty, durable or not, restoring whatever
// a crash kept from the data file. Close the returned backend to release
// the files.
func OpenFile(file string, opts Options) (*Backend, error) {
	db, err := relstore.Open(file, opts.Create, opts.Durable)
	if err != nil {
		return nil, err
	}
	var tbl *relstore.Table
	if opts.Create {
		if tbl, err = db.CreateTable(schema()); err == nil {
			err = db.GroupCommit()
		}
	} else {
		tbl, err = db.Table(TableName)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return newBackend(db, tbl), nil
}
