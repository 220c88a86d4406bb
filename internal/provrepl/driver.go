package provrepl

import (
	"fmt"
	"time"

	"repro/internal/provstore"
)

// The replicated:// composite driver. The primary and each replica are
// themselves DSNs (URL-escape them when they carry their own ?params), so
// replication composes with every registered scheme: a durable rel://
// primary with mem:// read replicas, a cpdb:// network primary with a local
// standby, even replicated-over-sharded.
//
//	replicated://?primary=DSN&replica=DSN[&replica=DSN…]
//	             [&read=primary|any]   read routing (default primary)
//	             [&poll=500ms]         applier idle poll / error backoff
//	             [&verify=1]           ship over the primary's authenticated
//	                                   stream; the primary DSN must be a
//	                                   verified:// store
func init() {
	provstore.RegisterDriver("replicated", provstore.DriverFunc(openDSN))
}

func openDSN(dsn provstore.DSN) (provstore.Backend, error) {
	if dsn.Path != "" {
		return nil, fmt.Errorf("provstore: dsn %s: replicated stores have no path; name stores via ?primary=…&replica=…", dsn)
	}
	if err := dsn.RejectUnknownParams("primary", "replica", "read", "poll", "verify"); err != nil {
		return nil, err
	}
	primaryDSN := dsn.Param("primary")
	if primaryDSN == "" {
		return nil, fmt.Errorf("provstore: dsn %s: replicated:// needs a primary=DSN parameter", dsn)
	}
	replicaDSNs := dsn.Params["replica"]
	if len(replicaDSNs) == 0 {
		return nil, fmt.Errorf("provstore: dsn %s: replicated:// needs at least one replica=DSN parameter", dsn)
	}

	var opts options
	switch dsn.Param("read") {
	case "", "primary":
		opts.Read = readPrimary
	case "any":
		opts.Read = readAny
	default:
		return nil, fmt.Errorf("provstore: dsn %s: read=%q is not primary or any", dsn, dsn.Param("read"))
	}
	if v := dsn.Param("poll"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("provstore: dsn %s: poll %q is not a positive duration", dsn, v)
		}
		opts.Poll = d
	}
	switch dsn.Param("verify") {
	case "", "0":
	case "1":
		opts.Verify = true
	default:
		return nil, fmt.Errorf("provstore: dsn %s: verify=%q is not 0 or 1", dsn, dsn.Param("verify"))
	}

	var opened []provstore.Backend
	fail := func(err error) (provstore.Backend, error) {
		for _, s := range opened {
			provstore.Close(s) //nolint:errcheck // already failing; release what opened
		}
		return nil, err
	}
	primary, err := provstore.OpenDSN(primaryDSN)
	if err != nil {
		return fail(fmt.Errorf("provstore: dsn %s: primary: %w", dsn, err))
	}
	opened = append(opened, primary)
	replicas := make([]provstore.Backend, 0, len(replicaDSNs))
	for i, rd := range replicaDSNs {
		r, err := provstore.OpenDSN(rd)
		if err != nil {
			return fail(fmt.Errorf("provstore: dsn %s: replica %d: %w", dsn, i, err))
		}
		opened = append(opened, r)
		replicas = append(replicas, r)
	}
	rb, err := newReplicated(primary, replicas, opts)
	if err != nil {
		return fail(err)
	}
	return rb, nil
}
