package provauth

import (
	"fmt"

	"repro/internal/provstore"
)

// The verified:// composite driver: an AuthBackend over any inner DSN
// (URL-escape the inner DSN when it carries its own ?params), so the
// authenticated tree composes with every registered scheme — a durable
// rel:// file, a sharded composite, even a remote cpdb:// store whose
// answers the local tree then re-attests.
//
//	verified://?inner=DSN
//
// Opening over a populated store rebuilds the tree from its All() scan
// stream, recomputing the same per-transaction roots the original process
// published.
func init() {
	provstore.RegisterDriver("verified", provstore.DriverFunc(openDSN))
}

func openDSN(dsn provstore.DSN) (provstore.Backend, error) {
	if dsn.Path != "" {
		return nil, fmt.Errorf("provstore: dsn %s: verified stores have no path; name the store via ?inner=DSN", dsn)
	}
	if err := dsn.RejectUnknownParams("inner"); err != nil {
		return nil, err
	}
	innerDSN := dsn.Param("inner")
	if innerDSN == "" {
		return nil, fmt.Errorf("provstore: dsn %s: verified:// needs an inner=DSN parameter", dsn)
	}
	inner, err := provstore.OpenDSN(innerDSN)
	if err != nil {
		return nil, fmt.Errorf("provstore: dsn %s: inner: %w", dsn, err)
	}
	a, err := New(inner)
	if err != nil {
		provstore.Close(inner) //nolint:errcheck // already failing; release what opened
		return nil, err
	}
	return a, nil
}
