package provstore

import (
	"errors"
	"fmt"
	"net"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file implements the backend driver registry, modeled on database/sql:
// backends register an opener under a URI scheme, and OpenDSN("mem://…",
// "rel://…", "sharded://…") resolves a data source name to a live Backend.
// The paper's architecture treats the provenance database P as a pluggable
// service behind the editor (Figure 2); the registry is what makes it
// pluggable by configuration rather than by constructor choice.
//
// DSN grammar:
//
//	dsn    = scheme "://" [path] ["?" params]
//	scheme = ALPHA *(ALPHA / DIGIT / "+" / "-" / ".")
//	path   = any characters except "?" (URL-percent-escapes are decoded)
//	params = standard URL query syntax; interpretation is per driver
//
// Built-in schemes:
//
//	mem://                      in-memory store
//	mem://?shards=8             in-memory store over 8 hash-partitioned shards
//	rel://file.db?create=1      relational store in file.db (create it)
//	rel://file.db?durable=1     … with a WAL and group commit (file.db.wal)
//	sharded://?shard=DSN&shard=DSN   sharded store over explicit shard DSNs
//
// (The rel driver registers itself from internal/relprov, so importing the
// root cpdb package makes all built-in schemes available.)

// A DSN is a parsed backend data source name.
type DSN struct {
	// Scheme selects the driver ("mem", "rel", …).
	Scheme string
	// Path is the location part between "://" and "?", percent-decoded
	// ("" for stores with no location, like mem).
	Path string
	// Params are the query parameters after "?" (never nil).
	Params url.Values

	raw string
}

// String returns the DSN as it was parsed.
func (d DSN) String() string { return d.raw }

// Param returns the first value of the named parameter, or "" when absent.
func (d DSN) Param(key string) string { return d.Params.Get(key) }

// BoolParam interprets the named parameter as a flag: absent and "0"/
// "false"/"no" are false; "1"/"true"/"yes" (and a bare "?durable" with an
// empty value) are true. Anything else is an error.
func (d DSN) BoolParam(key string) (bool, error) {
	if _, ok := d.Params[key]; !ok {
		return false, nil
	}
	switch strings.ToLower(d.Params.Get(key)) {
	case "", "1", "true", "yes":
		return true, nil
	case "0", "false", "no":
		return false, nil
	default:
		return false, fmt.Errorf("provstore: dsn %s: parameter %s=%q is not a boolean", d.raw, key, d.Params.Get(key))
	}
}

// intParam returns the named parameter as an int, or def when absent.
func (d DSN) intParam(key string, def int) (int, error) {
	v := d.Params.Get(key)
	if v == "" {
		if _, ok := d.Params[key]; !ok {
			return def, nil
		}
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("provstore: dsn %s: parameter %s=%q is not an integer", d.raw, key, v)
	}
	return n, nil
}

// RejectUnknownParams errors on any parameter outside the allowed set, so a
// typo ("durible=1") fails loudly instead of being ignored, and on any
// parameter given twice except shard and replica, which name one store each:
// Param reads the first of several values, so durable=0&durable=1 would
// silently open a store that is not durable. Drivers are expected to call it
// before they open anything.
func (d DSN) RejectUnknownParams(allowed ...string) error {
	for k, vs := range d.Params {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("provstore: dsn %s: unknown parameter %q (%s driver accepts %s)",
				d.raw, k, d.Scheme, strings.Join(allowed, ", "))
		}
		if len(vs) > 1 && k != "shard" && k != "replica" {
			return fmt.Errorf("provstore: dsn %s: parameter %q is given %d times; only shard and replica may repeat", d.raw, k, len(vs))
		}
	}
	return nil
}

// ParseDSN parses a data source name. It validates only the shared grammar;
// parameter names and the meaning of the path belong to the driver.
func ParseDSN(s string) (DSN, error) {
	scheme, rest, ok := strings.Cut(s, "://")
	if !ok {
		return DSN{}, fmt.Errorf("provstore: dsn %q has no scheme (want scheme://…)", s)
	}
	if !validScheme(scheme) {
		return DSN{}, fmt.Errorf("provstore: dsn %q has an invalid scheme %q", s, scheme)
	}
	pathPart, query, _ := strings.Cut(rest, "?")
	decoded, err := url.PathUnescape(pathPart)
	if err != nil {
		return DSN{}, fmt.Errorf("provstore: dsn %q: bad path escaping: %v", s, err)
	}
	params, err := url.ParseQuery(query)
	if err != nil {
		return DSN{}, fmt.Errorf("provstore: dsn %q: bad parameters: %v", s, err)
	}
	return DSN{Scheme: scheme, Path: decoded, Params: params, raw: s}, nil
}

func validScheme(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return false
		}
	}
	return true
}

// HostPort interprets the DSN's path as a network authority "host:port" —
// the form used by network-backed schemes like cpdb://10.0.0.5:7070. IPv6
// literals use the usual bracketed form (cpdb://[::1]:7070). A numeric port
// is required: a provenance service has no well-known default, and demanding
// it keeps the failure at parse time rather than dial time.
func (d DSN) HostPort() (host, port string, err error) {
	host, port, err = net.SplitHostPort(d.Path)
	if err != nil {
		return "", "", fmt.Errorf("provstore: dsn %s: path %q is not host:port: %v", d.raw, d.Path, err)
	}
	if host == "" || port == "" {
		return "", "", fmt.Errorf("provstore: dsn %s: authority %q needs both host and port", d.raw, d.Path)
	}
	if _, perr := strconv.ParseUint(port, 10, 16); perr != nil {
		return "", "", fmt.Errorf("provstore: dsn %s: port %q is not a number in 0-65535", d.raw, port)
	}
	return host, port, nil
}

// EscapeDSNPath escapes a file path for embedding in a DSN, so paths
// containing "?", "%" or "#" round-trip through ParseDSN.
func EscapeDSNPath(p string) string {
	// PathEscape escapes "/" too; restore it for readability — ParseDSN
	// splits on "?" only, so literal slashes are safe.
	return strings.ReplaceAll(url.PathEscape(p), "%2F", "/")
}

// A Driver opens backends for one DSN scheme.
type Driver interface {
	Open(dsn DSN) (Backend, error)
}

// DriverFunc adapts a function to the Driver interface.
type DriverFunc func(dsn DSN) (Backend, error)

// Open implements Driver.
func (f DriverFunc) Open(dsn DSN) (Backend, error) { return f(dsn) }

var (
	driversMu sync.RWMutex
	drivers   = make(map[string]Driver)
)

// RegisterDriver makes a backend driver available under the given DSN
// scheme. Like database/sql.Register it is intended to run from a driver
// package's init function, and panics on a nil driver or a duplicate scheme.
func RegisterDriver(scheme string, d Driver) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if d == nil {
		panic("provstore: RegisterDriver driver is nil")
	}
	if !validScheme(scheme) {
		panic(fmt.Sprintf("provstore: RegisterDriver scheme %q is invalid", scheme))
	}
	if _, dup := drivers[scheme]; dup {
		panic(fmt.Sprintf("provstore: RegisterDriver called twice for scheme %q", scheme))
	}
	drivers[scheme] = d
}

// Drivers returns the registered scheme names, sorted.
func Drivers() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	out := make([]string, 0, len(drivers))
	for s := range drivers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// OpenDSN parses a data source name and opens a backend with the driver
// registered for its scheme.
func OpenDSN(s string) (Backend, error) {
	dsn, err := ParseDSN(s)
	if err != nil {
		return nil, err
	}
	driversMu.RLock()
	d, ok := drivers[dsn.Scheme]
	driversMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("provstore: dsn %q: unknown scheme %q (registered: %s)",
			s, dsn.Scheme, strings.Join(Drivers(), ", "))
	}
	return d.Open(dsn)
}

// --- built-in drivers -------------------------------------------------------

// opensFresh reports whether every open of the DSN s makes a store of its
// own, as mem:// does: s names no file or address, and neither does any DSN
// among its parameters. An unparseable s counts as fresh; opening it fails.
func opensFresh(s string) bool {
	d, err := ParseDSN(s)
	if err != nil {
		return true
	}
	if d.Path != "" {
		return false
	}
	for _, vs := range d.Params {
		for _, v := range vs {
			if strings.Contains(v, "://") && !opensFresh(v) {
				return false
			}
		}
	}
	return true
}

func init() {
	RegisterDriver("mem", DriverFunc(openMem))
	RegisterDriver("sharded", DriverFunc(openComposite))
}

// openMem opens mem:// (a single in-memory store) and mem://?shards=N (N
// hash-partitioned in-memory shards).
func openMem(dsn DSN) (Backend, error) {
	if dsn.Path != "" {
		return nil, fmt.Errorf("provstore: dsn %s: mem stores have no path", dsn)
	}
	if err := dsn.RejectUnknownParams("shards"); err != nil {
		return nil, err
	}
	if _, sharded := dsn.Params["shards"]; sharded {
		n, err := dsn.intParam("shards", 1)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("provstore: dsn %s: shards must be >= 1", dsn)
		}
		return NewShardedMem(n), nil
	}
	return NewMemBackend(), nil
}

// openComposite opens sharded://?shard=DSN&shard=DSN…, a sharded store over
// the shards the repeated shard parameters name, in order. A shard DSN that
// names a file or an address, itself or in a DSN it nests, may be named
// once: opening one store twice would give two shards one store, and each
// would hold the other's partition too.
func openComposite(dsn DSN) (Backend, error) {
	if dsn.Path != "" {
		return nil, fmt.Errorf("provstore: dsn %s: sharded stores have no path; name shards via ?shard=…", dsn)
	}
	if err := dsn.RejectUnknownParams("shard"); err != nil {
		return nil, err
	}
	shardDSNs := dsn.Params["shard"]
	if len(shardDSNs) == 0 {
		return nil, errors.New("provstore: sharded:// needs ?shard=… parameters")
	}
	for i, sd := range shardDSNs {
		if j := slices.Index(shardDSNs, sd); j < i && !opensFresh(sd) {
			return nil, fmt.Errorf("provstore: dsn %s: shards %d and %d would share one store %q; name a store of its own for each shard", dsn, j, i, sd)
		}
	}
	shards := make([]Backend, 0, len(shardDSNs))
	fail := func(err error) (Backend, error) {
		for _, s := range shards {
			Close(s) //nolint:errcheck // already failing; release what opened
		}
		return nil, err
	}
	for i, sd := range shardDSNs {
		b, err := OpenDSN(sd)
		if err != nil {
			return fail(fmt.Errorf("provstore: dsn %s: shard %d: %w", dsn, i, err))
		}
		shards = append(shards, b)
	}
	sb, err := NewSharded(shards...)
	if err != nil {
		return fail(err)
	}
	return sb, nil
}
