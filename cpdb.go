package cpdb

import (
	"errors"
	"io/fs"

	"repro/internal/path"
	_ "repro/internal/provhttp" // registers the cpdb:// network driver
	"repro/internal/provplan"
	_ "repro/internal/provrepl" // registers the replicated:// backend driver
	"repro/internal/provstore"
	_ "repro/internal/relprov" // registers the rel:// backend driver
	"repro/internal/relstore"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the public surface.
type (
	// Path addresses one node in a forest of databases ("T/c1/y").
	Path = path.Path
	// Node is one node of the unordered edge-labelled tree data model.
	Node = tree.Node
	// M is a literal tree description for building fixtures.
	M = tree.M
	// Method selects a provenance storage strategy.
	Method = provstore.Method
	// Record is one row of the Prov relation.
	Record = provstore.Record
	// Backend persists provenance records.
	Backend = provstore.Backend
	// ScanSpec is one ordered scan as a value — the argument of Backend.Scan.
	ScanSpec = provstore.ScanSpec
	// Stat is a store's scalars — the answer of Backend.Stat.
	Stat = provstore.Stat
	// DSN is a parsed backend data source name (see OpenBackend).
	DSN = provstore.DSN
	// Driver opens backends for one DSN scheme (see RegisterDriver).
	Driver = provstore.Driver
	// DriverFunc adapts a function to the Driver interface.
	DriverFunc = provstore.DriverFunc
	// Source is a wrapped, browsable database (Figure 6 SourceDB).
	Source = wrapper.Source
	// Target is a wrapped, editable database (Figure 6 TargetDB).
	Target = wrapper.Target
	// TraceResult is the backward history of one location.
	TraceResult = provplan.TraceResult
	// Event is one step of a trace.
	Event = provplan.Event
	// Origin classifies how a trace ended.
	Origin = provplan.Origin
	// Federation joins several databases' provenance stores.
	Federation = provplan.Federation
	// PlanQuery is one declarative provenance query — the AST Session.Plan
	// compiles, and the JSON body of the daemon's POST /v1/query.
	PlanQuery = provplan.Query
	// PlanResult is a drained plan result, decoded by query kind.
	PlanResult = provplan.Result
	// PlanRow is one element of a streaming plan result (Query.PlanRows).
	PlanRow = provplan.Row
)

// The four storage methods, in the paper's order.
const (
	Naive         = provstore.Naive
	Hierarchical  = provstore.Hierarchical
	Transactional = provstore.Transactional
	HierTrans     = provstore.HierTrans
)

// Trace origins.
const (
	OriginInserted    = provplan.OriginInserted
	OriginExternal    = provplan.OriginExternal
	OriginPreexisting = provplan.OriginPreexisting
)

// ParsePath parses the textual form of a path.
func ParsePath(s string) (Path, error) { return path.Parse(s) }

// ParsePlanQuery parses the textual form of a declarative provenance query
// ("select where loc>=T/c2 and op=C order loc-tid limit 10", "trace T/c3
// asof 5", …); see internal/provplan for the full grammar. The parsed query
// runs via Session.Plan / Query.PlanQuery.
func ParsePlanQuery(s string) (*PlanQuery, error) { return provplan.Parse(s) }

// MustParsePath is ParsePath for known-good literals; it panics on error.
func MustParsePath(s string) Path { return path.MustParse(s) }

// ParseMethod parses "N", "T", "H" or "HT".
func ParseMethod(s string) (Method, error) { return provstore.ParseMethod(s) }

// BuildTree constructs a tree from a literal description (see M).
func BuildTree(m M) *Node { return tree.Build(m) }

// NewLeaf returns a leaf node carrying a data value.
func NewLeaf(v string) *Node { return tree.NewLeaf(v) }

// NewTree returns the empty tree {}.
func NewTree() *Node { return tree.NewTree() }

// NewMemTarget returns an in-memory tree-database target (an xmlstore, the
// package's Timber stand-in) wrapped for editing. initial may be nil.
func NewMemTarget(name string, initial *Node) Target {
	return wrapper.NewXMLTarget(xmlstore.NewMem(name, initial))
}

// NewMemSource returns an in-memory tree-database source.
func NewMemSource(name string, initial *Node) Source {
	return wrapper.NewXMLTarget(xmlstore.NewMem(name, initial))
}

// OpenFileTarget opens a file-persisted tree-database target, creating the
// file (with the given initial tree) only when it does not exist yet. An
// existing but unreadable or corrupt file is an error — re-initializing it
// would silently discard the curated database.
func OpenFileTarget(name, file string, initial *Node) (Target, error) {
	s, err := xmlstore.Open(name, file)
	if errors.Is(err, fs.ErrNotExist) {
		s, err = xmlstore.Create(name, file, initial)
	}
	if err != nil {
		return nil, err
	}
	return wrapper.NewXMLTarget(s), nil
}

// NewRelSource wraps a relational database (the package's MySQL stand-in)
// as a read-only source presenting the four-level DB/R/tid/F view.
func NewRelSource(name string, db *relstore.DB, tables ...string) Source {
	return wrapper.NewRelSource(name, db, tables...)
}

// --- provenance store openers ----------------------------------------------

// OpenBackend opens a provenance store from a data source name, dispatching
// on its URI scheme through the backend driver registry (see
// RegisterDriver). Built-in schemes:
//
//	mem://                              in-memory store
//	mem://?shards=8                     8 hash-partitioned in-memory shards
//	rel://prov.db?create=1              a new relational store in prov.db
//	                                    (replaces any store at that path,
//	                                    and its log)
//	rel://prov.db?create=1&durable=1    … with WAL-backed group commit
//	rel://prov.db?durable=1             reopen after a crash (log replay)
//	sharded://?shard=mem://&shard=mem://
//	                                    a sharded store over the shard DSNs
//	                                    named, in order (URL-escaped when
//	                                    they carry their own ?params)
//	cpdb://10.0.0.5:7070                a cpdbd provenance service over the
//	                                    network (one HTTP round trip per
//	                                    store call; see cmd/cpdbd)
//	cpdb://[::1]:7070?timeout=5s        IPv6 authority, bounded round trips
//	replicated://?primary=DSN&replica=DSN&replica=DSN
//	                                    replicated store: synchronous writes
//	                                    to the primary, asynchronous
//	                                    log-shipping to each replica
//	                                    (&read=any fans reads across
//	                                    caught-up replicas with failover;
//	                                    URL-escape nested DSNs carrying
//	                                    their own ?params)
//
// Backends holding files (rel, sharded-over-rel) are released by
// Session.Close, or directly by type-asserting to io.Closer. For cpdb://
// backends, Session.Close flushes the *service's* group-commit buffers and
// releases the client's connections; the daemon owns its store's lifecycle.
func OpenBackend(dsn string) (Backend, error) {
	return provstore.OpenDSN(dsn)
}

// ParseDSN parses a backend data source name without opening it.
func ParseDSN(dsn string) (DSN, error) { return provstore.ParseDSN(dsn) }

// RegisterDriver makes a backend driver available to OpenBackend under the
// given DSN scheme, as database/sql.Register does for SQL drivers. It
// panics on a duplicate scheme, so third-party drivers register from an
// init function.
func RegisterDriver(scheme string, d Driver) { provstore.RegisterDriver(scheme, d) }

// BackendSchemes returns the registered DSN schemes, sorted.
func BackendSchemes() []string { return provstore.Drivers() }

// NewShardedBackend partitions provenance records across the given shard
// stores (e.g. one relational store per shard) by hash of each record's
// root-relative location; appends touching different shards proceed in
// parallel and queries scatter-gather. It composes already-opened stores
// that need not be DSN-expressible; for stores that are, prefer
// OpenBackend("mem://?shards=N") or OpenBackend("sharded://?…"). Sessions
// sharing one backend must partition the transaction-id space via
// Config.StartTid — each session numbers its own transactions, and
// colliding {Tid, Loc} keys are rejected as duplicates.
func NewShardedBackend(shards ...Backend) (Backend, error) {
	return provstore.NewSharded(shards...)
}

// CloseBackend flushes and closes a backend opened with OpenBackend
// without going through a Session — sessions normally release
// their backend via Session.Close.
func CloseBackend(b Backend) error { return provstore.Close(b) }

// NewFederation returns an empty provenance federation for Own queries.
func NewFederation() *Federation { return provplan.NewFederation() }

// RegisterProvenance attaches a session's provenance store to a federation
// under the session's target database name.
func RegisterProvenance(f *Federation, s *Session) {
	f.Register(s.TargetName(), s.BackendStore())
}

// ParseScript parses an update script in the paper's Figure 3 syntax.
func ParseScript(src string) (update.Sequence, error) { return update.ParseScript(src) }
